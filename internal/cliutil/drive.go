package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"numadag/internal/core"
	"numadag/internal/shard"
)

// ShardSet binds the sharded/resumable sweep flags shared by the
// experiment-grid commands, so -shard/-resume/-out and friends are defined
// once, not per command.
type ShardSet struct {
	Shard    string // -shard i/n: run one shard of the grid
	Out      string // -out: directory for shard journals
	Resume   bool   // -resume: skip cells already journaled under -out
	MergeF   string // -merge dir: merge shard journals, no simulation
	MaxCells int    // -maxcells: stop (resumably) after N fresh cells
}

// BindShard registers the sharding flags on fs.
func BindShard(fs *flag.FlagSet) *ShardSet {
	sf := &ShardSet{}
	fs.StringVar(&sf.Shard, "shard", "", "run one shard i/n of the grid (0-based, e.g. 0/3), journaling to -out")
	fs.StringVar(&sf.Out, "out", "sweep-out", "directory for shard/checkpoint journals")
	fs.BoolVar(&sf.Resume, "resume", false, "skip cells already journaled under -out and replay them from the journal")
	fs.StringVar(&sf.MergeF, "merge", "", "merge the shard journals in this directory into the canonical outputs (no simulation)")
	fs.IntVar(&sf.MaxCells, "maxcells", 0, "stop after this many freshly-run cells, leaving a resumable journal (0 = no limit)")
	return sf
}

// Mode is what a ShardSet asks the command to do.
type Mode int

const (
	// ModeRun is the classic path: run the whole grid in-process, stream to
	// the sinks.
	ModeRun Mode = iota
	// ModeCheckpoint runs the whole grid behind a journal (-resume and/or
	// -maxcells): the sinks still see the full canonical stream.
	ModeCheckpoint
	// ModeShard runs one shard of the grid into its journal; outputs come
	// later, from ModeMerge.
	ModeShard
	// ModeMerge recombines shard journals into the canonical stream.
	ModeMerge
)

// FullStream reports whether the mode delivers the full canonical cell
// stream to the command's sinks (so tables and -jsonl/-csv make sense).
func (m Mode) FullStream() bool {
	return m == ModeRun || m == ModeCheckpoint || m == ModeMerge
}

// Mode validates flag combinations and names the requested mode.
func (sf *ShardSet) Mode() (Mode, error) {
	if sf.Shard != "" && sf.MergeF != "" {
		return 0, fmt.Errorf("-shard and -merge are mutually exclusive")
	}
	switch {
	case sf.MergeF != "":
		if sf.Resume || sf.MaxCells > 0 {
			return 0, fmt.Errorf("-resume/-maxcells do not apply to -merge")
		}
		return ModeMerge, nil
	case sf.Shard != "":
		return ModeShard, nil
	case sf.Resume || sf.MaxCells > 0:
		return ModeCheckpoint, nil
	default:
		return ModeRun, nil
	}
}

// Drive executes experiment e under the requested mode. In full-stream
// modes every sink sees the complete canonical cell stream (and is closed);
// in ModeShard the sinks must be empty — the shard's journal under -out is
// the output. Interrupting via -maxcells surfaces as shard.ErrInterrupted
// (wrapped): the journal is valid and the run resumable, so callers should
// treat it as a clean early exit, not a failure.
func Drive(ctx context.Context, e *core.Experiment, mode Mode, sf *ShardSet, sinks ...core.Sink) error {
	switch mode {
	case ModeRun:
		return e.Run(ctx, sinks...)
	case ModeMerge:
		h, err := shard.MergeDir(sf.MergeF, sinks...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "merged %s: %d cells (grid %s)\n", h.Experiment, h.Total, h.Grid)
		return nil
	}

	// ModeShard / ModeCheckpoint: run behind a journal.
	sp := shard.Spec{}.Norm()
	if sf.Shard != "" {
		var err error
		if sp, err = shard.ParseSpec(sf.Shard); err != nil {
			return err
		}
	}
	h, err := shard.HeaderFor(e, sp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(sf.Out, 0o755); err != nil {
		return err
	}
	path := shard.JournalPath(sf.Out, sp)
	j, err := shard.OpenJournal(path, h, sf.Resume)
	if err != nil {
		return err
	}
	defer j.Close()
	cs := shard.NewCheckpointSink(j, sinks...)
	cs.MaxFresh = sf.MaxCells
	e.Skip = func(c core.Cell) bool { return sp.Skip(c) || cs.Skip(c) }
	runErr := e.Run(ctx, cs)
	if err := j.Sync(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil || errors.Is(runErr, shard.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "shard %s: %d cells run, %d resumed from journal -> %s\n",
			sp, cs.Fresh(), j.Len()-cs.Fresh(), path)
	}
	return runErr
}
