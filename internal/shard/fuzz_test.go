package shard_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"numadag/internal/core"
	"numadag/internal/shard"
)

// checkAccepted asserts what the parser promises about every stream it
// accepts: each record names a distinct in-grid cell the header's shard
// owns, and re-encoding a record decodes back to exactly the same result.
func checkAccepted(t *testing.T, h shard.Header, results []core.CellResult) {
	t.Helper()
	sp := shard.Spec{Index: h.ShardIndex, Count: h.ShardCount}
	for i, res := range results {
		idx := res.Cell.Index
		if idx < 0 || idx >= h.Total || !sp.Owns(idx) {
			t.Fatalf("accepted cell %d outside shard %s of a %d-cell grid", idx, sp, h.Total)
		}
		if i > 0 && idx <= results[i-1].Cell.Index {
			t.Fatalf("accepted results out of canonical order or repeated at cell %d", idx)
		}
		line, err := shard.Encode(res)
		if err != nil {
			t.Fatalf("cell %d: re-encode: %v", idx, err)
		}
		back, err := shard.Decode(line)
		if err != nil {
			t.Fatalf("cell %d: decode of own encoding: %v\n%s", idx, err, line)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("cell %d: Decode(Encode(r)) != r:\n%+v\n%+v", idx, back, res)
		}
	}
}

// FuzzReadStream throws arbitrary bytes at the one wire-stream parser
// behind -merge and -resume: it must return an error or a stream and never
// panic, and an accepted stream holds only in-range, in-shard records that
// round-trip through the encoder.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := shard.ReadStream(data)
		if err != nil {
			return
		}
		checkAccepted(t, st.Header, st.Results)
	})
}

// FuzzOpenJournal writes arbitrary bytes where a crashed run's journal
// would be and resumes from it: OpenJournal must refuse the file or load
// only in-range records that round-trip, and a journal it accepted (with
// any torn tail truncated) must reopen to the same results.
func FuzzOpenJournal(f *testing.F) {
	h, err := shard.HeaderFor(testExperiment(), shard.Spec{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.cells.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := shard.OpenJournal(path, h, true)
		if err != nil {
			return
		}
		got := j.Results()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		checkAccepted(t, h, got)
		j, err = shard.OpenJournal(path, h, true)
		if err != nil {
			t.Fatalf("accepted journal does not reopen: %v", err)
		}
		defer j.Close()
		if again := j.Results(); !reflect.DeepEqual(again, got) {
			t.Fatalf("reopened journal holds %d results, first open %d", len(again), len(got))
		}
	})
}
