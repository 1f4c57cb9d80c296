// Package shard makes experiment grids sharded and resumable: it defines
// the versioned wire format for cell results, deterministic grid sharding,
// crash-safe checkpoint journals that let an interrupted sweep skip
// completed cells on restart, and a merger that recombines per-shard
// streams into the canonical cell order.
//
// # Sharding model
//
// A Spec{Index, Count} restricts a core.Experiment to the cells whose
// canonical Index falls in its round-robin partition class (Index mod
// Count). Cell indices are never renumbered: a shard's output stream is a
// subsequence of the canonical enumeration, so the N shard streams
// partition the grid exactly and Merge can recombine them — the merged
// output is byte-identical to an unsharded run, because the merged stream
// feeds the same sinks the same records in the same order. Round-robin
// (rather than contiguous ranges) spreads each app's cells across shards,
// so shards finish in comparable time even when workloads differ wildly in
// cost. Shards of one grid can run anywhere that shares the output
// directory; MergeDir then recombines their journals.
//
// # Wire format
//
// One journal/shard stream is a JSON-lines file: a Header line, then one
// Record line per completed cell, each flushed as it lands so a crash loses
// at most a partial final line (which resume detects and truncates). See
// Record for the format's versioning and compatibility rule. Journal is
// the one writer of the format and ReadStream the one parser: resume and
// merge both read through it, and it rejects any record outside the
// header's grid or shard.
//
// # Resumability
//
// A CheckpointSink journals every completed cell. On restart, OpenJournal
// reads the surviving records, Experiment.Skip (wired to CheckpointSink's
// Skip) excludes the completed cells from execution, and the sink replays
// the journaled results interleaved in canonical order, so downstream sinks
// still observe the full stream — the resumed run's output is byte-identical
// to an uninterrupted one.
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"numadag/internal/core"
)

// Spec selects one shard of a grid: the cells whose canonical Index is
// congruent to Index modulo Count. The zero value (interpreted by Norm as
// 0 of 1) means "the whole grid".
type Spec struct {
	Index int
	Count int
}

// Norm returns the spec with the zero value normalized to the whole grid
// (0 of 1).
func (s Spec) Norm() Spec {
	if s.Count == 0 && s.Index == 0 {
		return Spec{0, 1}
	}
	return s
}

// Validate checks 0 <= Index < Count.
func (s Spec) Validate() error {
	s = s.Norm()
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: spec %d/%d: want 0 <= index < count", s.Index, s.Count)
	}
	return nil
}

// String renders the spec in ParseSpec's "index/count" form.
func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Norm().Index, s.Norm().Count) }

// Owns reports whether a canonical cell index belongs to this shard.
func (s Spec) Owns(index int) bool {
	s = s.Norm()
	return index%s.Count == s.Index
}

// Skip is the Experiment.Skip hook restricting a run to this shard: it
// skips every cell the shard does not own.
func (s Spec) Skip(c core.Cell) bool { return !s.Owns(c.Index) }

// ParseSpec parses "index/count" with 0 <= index < count — "-shard 0/3",
// "-shard 1/3", "-shard 2/3" are the three shards of a 3-way run.
func ParseSpec(text string) (Spec, error) {
	i, n, ok := strings.Cut(text, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q: want \"index/count\", e.g. 0/3", text)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return Spec{}, fmt.Errorf("shard: spec %q: bad index: %w", text, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Spec{}, fmt.Errorf("shard: spec %q: bad count: %w", text, err)
	}
	// Validate the literal values: the explicit "0/0" must not sneak
	// through Norm's zero-value-means-whole-grid interpretation.
	if cnt < 1 || idx < 0 || idx >= cnt {
		return Spec{}, fmt.Errorf("shard: spec %q: want 0 <= index < count", text)
	}
	return Spec{Index: idx, Count: cnt}, nil
}
