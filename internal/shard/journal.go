package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"

	"numadag/internal/core"
)

// ErrInterrupted is returned (wrapped) by Experiment.Run when a
// CheckpointSink with MaxFresh set has journaled its quota of fresh cells —
// the deterministic stand-in for a mid-sweep crash that tests and the
// cmd/sweep -maxcells hook rely on. The journal is valid and resumable at
// that point.
var ErrInterrupted = errors.New("shard: interrupted after MaxFresh fresh cells")

// Journal is a crash-safe record of completed cells: the wire Header
// followed by one Record line per cell, each line written and flushed
// individually, so the file is a valid (possibly partial) stream after a
// crash at any instant. A Journal doubles as a shard's output file — merge
// reads the same format.
type Journal struct {
	f      *os.File
	header Header
	done   map[int]core.CellResult
}

// OpenJournal creates (or, with resume, reopens) the journal at path for
// the grid and shard h describes.
//
// With resume set and an existing file: the header must match h (same
// experiment name, grid hash, total and shard), surviving records are
// loaded — they become Done cells — and a partial final line (the crash
// artifact of an interrupted write) is truncated away before appending
// resumes. Without resume an existing file is overwritten.
func OpenJournal(path string, h Header, resume bool) (*Journal, error) {
	h.V = WireVersion
	h.Kind = headerKind
	j := &Journal{header: h, done: make(map[int]core.CellResult)}
	if resume {
		data, err := os.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to resume, fall through to create.
		case err != nil:
			return nil, err
		default:
			keep, err := j.load(path, data)
			if err != nil {
				return nil, err
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			if err := f.Truncate(keep); err != nil {
				f.Close()
				return nil, err
			}
			j.f = f
			return j, nil
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	line, err := EncodeHeader(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	return j, nil
}

// load parses an existing journal's bytes through ReadStream, checks that
// it belongs to this journal's grid and shard, and returns the offset of
// the end of the last complete line (everything after it is a torn write).
func (j *Journal) load(path string, data []byte) (keep int64, err error) {
	st, err := ReadStream(data)
	if err != nil {
		return 0, fmt.Errorf("shard: %s: %w; delete the file to start over", path, err)
	}
	got, want := st.Header, j.header
	if got.Experiment != want.Experiment || got.Grid != want.Grid || got.Total != want.Total ||
		got.ShardIndex != want.ShardIndex || got.ShardCount != want.ShardCount {
		return 0, fmt.Errorf("shard: %s: journal is for a different grid (%s shard %d/%d grid %s; this run is %s shard %d/%d grid %s) — use a fresh -out dir or drop -resume",
			path, got.Experiment, got.ShardIndex, got.ShardCount, got.Grid,
			want.Experiment, want.ShardIndex, want.ShardCount, want.Grid)
	}
	for _, res := range st.Results {
		j.done[res.Cell.Index] = res
	}
	return int64(bytes.LastIndexByte(data, '\n') + 1), nil
}

// Done reports whether the cell at the given canonical index is already
// journaled.
func (j *Journal) Done(index int) bool { _, ok := j.done[index]; return ok }

// Len returns the number of journaled cells.
func (j *Journal) Len() int { return len(j.done) }

// Results returns the journaled cell results sorted by canonical index.
func (j *Journal) Results() []core.CellResult {
	out := make([]core.CellResult, 0, len(j.done))
	for _, res := range j.done {
		out = append(out, res)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell.Index < out[b].Cell.Index })
	return out
}

// Append journals one completed cell: the record line is written and
// pushed to the OS before Append returns, so a crashed process loses at
// most the cell it was mid-writing. Re-appending an already-journaled
// index is a no-op (the recorded result is authoritative — cells are
// deterministic, so a re-run produced the same bytes).
func (j *Journal) Append(res core.CellResult) error {
	if _, ok := j.done[res.Cell.Index]; ok {
		return nil
	}
	line, err := Encode(res)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	j.done[res.Cell.Index] = res
	return nil
}

// Sync forces the journal to stable storage (fsync) — crash durability
// beyond process loss; Append alone already survives the latter.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// CheckpointSink journals every fresh cell result and replays journaled
// ones, so a resumed experiment still delivers the full canonical stream
// to its downstream sinks.
//
// Wiring: pass the CheckpointSink as the experiment's sink (the downstream
// sinks go inside it, not alongside it) and set Experiment.Skip to its
// Skip method. Skipped (journaled) cells are then interleaved from the
// journal in canonical index order between the freshly-computed ones, so
// the inner sinks cannot tell a resumed run from an uninterrupted one —
// the outputs are byte-identical.
type CheckpointSink struct {
	// MaxFresh, when positive, interrupts the run after that many fresh
	// (non-replayed) cells have been journaled: the next Emit returns
	// ErrInterrupted, aborting the experiment with a valid, resumable
	// journal — a deterministic crash for tests and drills (cmd/sweep
	// -maxcells).
	MaxFresh int

	j      *Journal
	inner  []core.Sink
	replay []core.CellResult
	ri     int // next replay entry not yet delivered
	fresh  int // fresh cells journaled this run
}

// NewCheckpointSink wraps the inner sinks behind journal j. Results
// already in the journal (from the interrupted run being resumed) will be
// replayed to the inner sinks in canonical order; the experiment must skip
// them via Skip. Close closes the inner sinks (after draining the replay
// tail) but not the journal.
func NewCheckpointSink(j *Journal, inner ...core.Sink) *CheckpointSink {
	return &CheckpointSink{j: j, inner: inner, replay: j.Results()}
}

// Skip is the Experiment.Skip hook: it skips exactly the journaled cells.
// Combine it with a shard's own Skip for sharded resumable runs (cmd/sweep
// does).
func (s *CheckpointSink) Skip(c core.Cell) bool { return s.j.Done(c.Index) }

// Fresh returns the number of cells executed (journaled) by this run, as
// opposed to replayed — the "cell-run counter" resume tests assert on.
func (s *CheckpointSink) Fresh() int { return s.fresh }

// Replayed returns the number of journaled cells delivered downstream so
// far.
func (s *CheckpointSink) Replayed() int { return s.ri }

func (s *CheckpointSink) forward(res core.CellResult) error {
	for _, snk := range s.inner {
		if err := snk.Emit(res); err != nil {
			return err
		}
	}
	return nil
}

// Emit implements core.Sink for freshly-computed results: journaled
// results with smaller indices are replayed first, then the fresh result
// is forwarded and journaled.
func (s *CheckpointSink) Emit(res core.CellResult) error {
	if s.MaxFresh > 0 && s.fresh >= s.MaxFresh {
		return ErrInterrupted
	}
	for s.ri < len(s.replay) && s.replay[s.ri].Cell.Index < res.Cell.Index {
		if err := s.forward(s.replay[s.ri]); err != nil {
			return err
		}
		s.ri++
	}
	if s.ri < len(s.replay) && s.replay[s.ri].Cell.Index == res.Cell.Index {
		// The cell was journaled but executed anyway (Skip not wired to
		// this sink): runs are deterministic, so the fresh result equals the
		// journaled one. Consume the replay entry and fall through — the
		// journal's Append no-ops on the duplicate.
		s.ri++
	}
	if err := s.forward(res); err != nil {
		return err
	}
	if err := s.j.Append(res); err != nil {
		return err
	}
	s.fresh++
	return nil
}

// Close drains any journaled results beyond the last fresh cell, then
// closes the inner sinks. On an interrupted run (an Emit returned an
// error) the tail is deliberately not replayed — the stream is already
// known-incomplete and the table-style sinks would otherwise aggregate a
// half grid; the journal itself is complete and resumable either way.
func (s *CheckpointSink) Close() error {
	var firstErr error
	if s.MaxFresh <= 0 || s.fresh < s.MaxFresh {
		for ; s.ri < len(s.replay); s.ri++ {
			if err := s.forward(s.replay[s.ri]); err != nil {
				firstErr = err
				break
			}
		}
	}
	for _, snk := range s.inner {
		if err := snk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
