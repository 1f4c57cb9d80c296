package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"numadag/internal/core"
)

// Stream is one parsed journal/shard stream.
type Stream struct {
	Header  Header
	Results []core.CellResult // sorted by canonical index
}

// ReadStream parses a wire stream (a Journal file's bytes). A torn final
// line — the crash artifact journals may carry — is ignored. Every record
// must name a distinct cell of the header's grid that the header's shard
// owns; anything else is a corrupt or foreign stream and an error.
func ReadStream(data []byte) (Stream, error) {
	cut := bytes.LastIndexByte(data, '\n') + 1
	lines := bytes.Split(data[:cut], []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last '\n'
	if len(lines) == 0 {
		return Stream{}, fmt.Errorf("shard: empty stream")
	}
	h, err := DecodeHeader(lines[0])
	if err != nil {
		return Stream{}, err
	}
	sp := Spec{Index: h.ShardIndex, Count: h.ShardCount}
	st := Stream{Header: h}
	for i, line := range lines[1:] {
		res, err := Decode(line)
		if err != nil {
			return Stream{}, fmt.Errorf("record %d: %w", i+1, err)
		}
		if idx := res.Cell.Index; idx < 0 || idx >= h.Total || !sp.Owns(idx) {
			return Stream{}, fmt.Errorf("record %d: cell %d is not in shard %s of the %d-cell grid", i+1, idx, sp, h.Total)
		}
		st.Results = append(st.Results, res)
	}
	sort.Slice(st.Results, func(a, b int) bool {
		return st.Results[a].Cell.Index < st.Results[b].Cell.Index
	})
	for i := 1; i < len(st.Results); i++ {
		if idx := st.Results[i].Cell.Index; idx == st.Results[i-1].Cell.Index {
			return Stream{}, fmt.Errorf("shard: cell %d recorded twice", idx)
		}
	}
	return st, nil
}

// ReadStreamFile reads and parses one journal/shard file.
func ReadStreamFile(path string) (Stream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Stream{}, err
	}
	st, err := ReadStream(data)
	if err != nil {
		return Stream{}, fmt.Errorf("shard: %s: %w", path, err)
	}
	return st, nil
}

// JournalPattern matches the shard journal files cmd/sweep writes into an
// output directory; MergeDir globs it.
const JournalPattern = "shard-*.cells.jsonl"

// JournalPath names shard sp's journal file under dir.
func JournalPath(dir string, sp Spec) string {
	sp = sp.Norm()
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.cells.jsonl", sp.Index, sp.Count))
}

// Merge recombines shard streams into the canonical cell order and emits
// the merged stream through the given sinks (closing them at the end,
// exactly as Experiment.Run would). The streams, as ReadStream returns
// them, must come from the same grid (header experiment/total/grid
// fingerprint all equal) and together cover every canonical index exactly
// once; gaps (an unfinished shard) and duplicates are errors, not
// silently-wrong output. Because every sink sees the same records in the
// same order as an unsharded run, the merged output is byte-identical to
// one.
func Merge(streams []Stream, sinks ...core.Sink) (Header, error) {
	h, err := merge(streams, sinks...)
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return h, err
}

func merge(streams []Stream, sinks ...core.Sink) (Header, error) {
	if len(streams) == 0 {
		return Header{}, fmt.Errorf("shard: nothing to merge")
	}
	h := streams[0].Header
	var all []core.CellResult
	for _, st := range streams {
		if st.Header.Experiment != h.Experiment || st.Header.Total != h.Total || st.Header.Grid != h.Grid {
			return Header{}, fmt.Errorf("shard: merging streams from different grids (%q total %d grid %s vs %q total %d grid %s)",
				st.Header.Experiment, st.Header.Total, st.Header.Grid, h.Experiment, h.Total, h.Grid)
		}
		all = append(all, st.Results...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Cell.Index < all[b].Cell.Index })
	for i := 1; i < len(all); i++ {
		if idx := all[i].Cell.Index; idx == all[i-1].Cell.Index {
			return Header{}, fmt.Errorf("shard: cell %d appears in more than one stream", idx)
		}
	}
	// Every index lies in [0, Total) and none repeats, so the grid is
	// covered exactly when the counts match.
	if missing := h.Total - len(all); missing > 0 {
		var gaps []string
		for next, i := 0, 0; len(gaps) < 8 && next < h.Total; next++ {
			if i < len(all) && all[i].Cell.Index == next {
				i++
				continue
			}
			gaps = append(gaps, strconv.Itoa(next))
		}
		if missing > len(gaps) {
			gaps = append(gaps, fmt.Sprintf("... %d total", missing))
		}
		return Header{}, fmt.Errorf("shard: merge incomplete: %d of %d cells missing (indices %s) — did every shard finish?",
			missing, h.Total, strings.Join(gaps, ", "))
	}
	for _, res := range all {
		for _, s := range sinks {
			if err := s.Emit(res); err != nil {
				return Header{}, fmt.Errorf("shard: merge sink: %w", err)
			}
		}
	}
	mh := h
	mh.ShardIndex, mh.ShardCount = 0, 1
	return mh, nil
}

// MergeDir merges every shard journal (JournalPattern) found in dir.
func MergeDir(dir string, sinks ...core.Sink) (Header, error) {
	paths, err := filepath.Glob(filepath.Join(dir, JournalPattern))
	if err != nil {
		return Header{}, err
	}
	if len(paths) == 0 {
		return Header{}, fmt.Errorf("shard: no %s files in %s", JournalPattern, dir)
	}
	sort.Strings(paths)
	streams := make([]Stream, len(paths))
	for i, p := range paths {
		if streams[i], err = ReadStreamFile(p); err != nil {
			return Header{}, err
		}
	}
	return Merge(streams, sinks...)
}
