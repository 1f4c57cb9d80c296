package shard_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/shard"
	"numadag/internal/sim"
)

// testExperiment is the same tiny fixed grid the core sink goldens pin:
// 1 app x 2 policies x 2 seeds = 4 cells, sequential so stream order is
// beyond doubt.
func testExperiment() *core.Experiment {
	return &core.Experiment{
		Name:     "shard-test",
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Seeds:    2,
		Workers:  1,
	}
}

// runUnsharded captures the reference outputs one in-process run produces.
func runUnsharded(t *testing.T) (jsonl, csv, table []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	ts := core.NewTableSink(tableOpts())
	e := testExperiment()
	if err := e.Run(context.Background(), core.NewJSONLSink(&jb), core.NewCSVSink(&cb), ts); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := ts.Table().Write(&tb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), tb.Bytes()
}

func tableOpts() core.TableOptions {
	return core.TableOptions{
		Norm:     core.NormSpeedup,
		Baseline: func(c core.Cell) bool { return c.Policy == "LAS" },
		Geomean:  true,
	}
}

func TestSpecParse(t *testing.T) {
	sp, err := shard.ParseSpec("1/3")
	if err != nil || sp.Index != 1 || sp.Count != 3 {
		t.Fatalf("ParseSpec(1/3) = %+v, %v", sp, err)
	}
	for _, bad := range []string{"", "3", "3/3", "-1/3", "0/0", "a/b", "1/3/4"} {
		if _, err := shard.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Every canonical index is owned by exactly one of n shards.
	const n = 3
	for idx := 0; idx < 20; idx++ {
		owners := 0
		for i := 0; i < n; i++ {
			if (shard.Spec{Index: i, Count: n}).Owns(idx) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("index %d owned by %d shards", idx, owners)
		}
	}
}

// TestWireRoundTrip pins the bit-exactness contract: decode(encode(res))
// reproduces Cell and Stats exactly, and re-encoding reproduces the line
// byte for byte — including awkward floats.
func TestWireRoundTrip(t *testing.T) {
	res := core.CellResult{
		Cell: core.Cell{
			Index: 7, App: "jacobi", Policy: "RGP+LAS?refine=off",
			Machine: "bullion-s16", Variant: "w=256", Replicate: 1, Seed: 0xdeadbeefcafe,
		},
	}
	res.Stats.Makespan = sim.Time(123456789)
	res.Stats.TasksRun = 4096
	res.Stats.BusyTime = []sim.Time{1, 2, 3, 1 << 40}
	res.Stats.LocalBytes = 1 << 52
	res.Stats.RemoteBytes = 3
	res.Stats.RemoteByteHops = 9
	res.Stats.Steals = 17
	res.Stats.Deferred = 2
	res.Stats.SocketTasks = []int{1024, 1024, 1024, 1024}
	res.Stats.CutBytes = 5
	res.Stats.LoadImbalance = 1.0 / 3.0
	res.Stats.MeanPortUtilization = 0.1 + 0.2 // not representable exactly
	res.Stats.MaxPortUtilization = math.Nextafter(1, 2)

	line, err := shard.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shard.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cell, res.Cell) {
		t.Errorf("cell drifted: %+v vs %+v", got.Cell, res.Cell)
	}
	if !reflect.DeepEqual(got.Stats, res.Stats) {
		t.Errorf("stats drifted: %+v vs %+v", got.Stats, res.Stats)
	}
	line2, err := shard.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, line2) {
		t.Errorf("re-encode drifted:\n%s%s", line, line2)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	if _, err := shard.Decode([]byte(`{"v":99,"index":0}`)); err == nil {
		t.Error("unknown record version accepted")
	}
	if _, err := shard.DecodeHeader([]byte(`{"v":99,"kind":"numadag-cells"}`)); err == nil {
		t.Error("unknown header version accepted")
	}
	if _, err := shard.DecodeHeader([]byte(`{"v":1,"kind":"something-else"}`)); err == nil {
		t.Error("foreign stream kind accepted")
	}
	for _, bad := range []string{
		`{"v":1,"kind":"numadag-cells","total":4,"shard_index":1,"shard_count":0}`,
		`{"v":1,"kind":"numadag-cells","total":4,"shard_index":0,"shard_count":0}`,
		`{"v":1,"kind":"numadag-cells","total":4,"shard_index":3,"shard_count":3}`,
		`{"v":1,"kind":"numadag-cells","total":-1,"shard_index":0,"shard_count":1}`,
	} {
		if _, err := shard.DecodeHeader([]byte(bad)); err == nil {
			t.Errorf("header %s accepted", bad)
		}
	}
}

// runShard computes one shard's journal in-process and returns its bytes.
func runShard(t *testing.T, sp shard.Spec) []byte {
	t.Helper()
	e := testExperiment()
	h, err := shard.HeaderFor(e, sp)
	if err != nil {
		t.Fatal(err)
	}
	path := shard.JournalPath(t.TempDir(), sp)
	j, err := shard.OpenJournal(path, h, false)
	if err != nil {
		t.Fatal(err)
	}
	e.Skip = sp.Skip
	if err := e.Run(context.Background(), shard.NewCheckpointSink(j)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withRecord appends to a wire stream one more record: a copy of the
// stream's first record moved to canonical index idx.
func withRecord(t *testing.T, data []byte, idx int) []byte {
	t.Helper()
	st, err := shard.ReadStream(data)
	if err != nil {
		t.Fatal(err)
	}
	res := st.Results[0]
	res.Cell.Index = idx
	line, err := shard.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), data...), line...)
}

// TestShardMergeByteIdentical is the tentpole acceptance test: three shards
// run independently, their streams merge back into outputs byte-identical
// to the unsharded run — JSONL, CSV and the rendered table.
func TestShardMergeByteIdentical(t *testing.T) {
	wantJSONL, wantCSV, wantTable := runUnsharded(t)

	streams := make([]shard.Stream, 3)
	total := 0
	for i := range streams {
		st, err := shard.ReadStream(runShard(t, shard.Spec{Index: i, Count: 3}))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Results) == 0 {
			t.Fatalf("shard %d/3 is empty — the test grid no longer exercises sharding", i)
		}
		streams[i] = st
		total += len(st.Results)
	}
	if total != 4 {
		t.Fatalf("shards cover %d cells, want 4", total)
	}

	var jb, cb bytes.Buffer
	ts := core.NewTableSink(tableOpts())
	if _, err := shard.Merge(streams, core.NewJSONLSink(&jb), core.NewCSVSink(&cb), ts); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := ts.Table().Write(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Errorf("merged JSONL differs from unsharded:\n%s---\n%s", jb.Bytes(), wantJSONL)
	}
	if !bytes.Equal(cb.Bytes(), wantCSV) {
		t.Errorf("merged CSV differs from unsharded:\n%s---\n%s", cb.Bytes(), wantCSV)
	}
	if !bytes.Equal(tb.Bytes(), wantTable) {
		t.Errorf("merged table differs from unsharded:\n%s---\n%s", tb.Bytes(), wantTable)
	}
}

func TestMergeRejectsGapsAndDuplicates(t *testing.T) {
	s0, err := shard.ReadStream(runShard(t, shard.Spec{Index: 0, Count: 2}))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := shard.ReadStream(runShard(t, shard.Spec{Index: 1, Count: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Merge([]shard.Stream{s0}); err == nil {
		t.Error("merge with a missing shard accepted")
	}
	if _, err := shard.Merge([]shard.Stream{s0, s0, s1}); err == nil {
		t.Error("merge with duplicate cells accepted")
	}
	other := s1
	other.Header.Experiment = "different"
	if _, err := shard.Merge([]shard.Stream{s0, other}); err == nil {
		t.Error("merge across grids accepted")
	}
	// A forged grid size is a gap to report, not a size to allocate.
	forged := bytes.Replace(runShard(t, shard.Spec{}), []byte(`"total":4,`), []byte(`"total":4611686018427387904,`), 1)
	huge, err := shard.ReadStream(forged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Merge([]shard.Stream{huge}); err == nil {
		t.Error("merge of a 4-cell stream claiming 2^62 cells accepted")
	}

	// Records outside the grid or the stream's shard are rejected by the
	// parser, before they can reach a merge: shard 0/2 owns index 4 by
	// residue, but the grid has only 4 cells; index 1 belongs to shard 1/2.
	b0 := runShard(t, shard.Spec{Index: 0, Count: 2})
	for _, idx := range []int{4, 1, -2} {
		if _, err := shard.ReadStream(withRecord(t, b0, idx)); err == nil {
			t.Errorf("shard 0/2 stream with a record for cell %d accepted", idx)
		}
	}
}

// TestResumeByteIdentical pins resumability: a run interrupted after 2
// fresh cells (deterministic crash via MaxFresh) resumes to produce
// outputs byte-identical to an uninterrupted run, having re-run only the
// missing cells.
func TestResumeByteIdentical(t *testing.T) {
	wantJSONL, _, wantTable := runUnsharded(t)
	dir := t.TempDir()
	path := shard.JournalPath(dir, shard.Spec{})

	// First run: interrupted after 2 of the 4 cells.
	e := testExperiment()
	h, err := shard.HeaderFor(e, shard.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := shard.OpenJournal(path, h, false)
	if err != nil {
		t.Fatal(err)
	}
	cs := shard.NewCheckpointSink(j)
	cs.MaxFresh = 2
	e.Skip = cs.Skip
	err = e.Run(context.Background(), cs)
	if !errors.Is(err, shard.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if cs.Fresh() != 2 {
		t.Fatalf("interrupted run executed %d cells, want 2", cs.Fresh())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: only the remaining cells run; sinks see the full stream.
	e = testExperiment()
	j, err = shard.OpenJournal(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("journal resumed with %d cells, want 2", j.Len())
	}
	var jb bytes.Buffer
	ts := core.NewTableSink(tableOpts())
	cs = shard.NewCheckpointSink(j, core.NewJSONLSink(&jb), ts)
	e.Skip = cs.Skip
	if err := e.Run(context.Background(), cs); err != nil {
		t.Fatal(err)
	}
	if cs.Fresh() != 2 {
		t.Errorf("resumed run executed %d cells, want 2 (the rest replayed)", cs.Fresh())
	}
	if cs.Replayed() != 2 {
		t.Errorf("resumed run replayed %d cells, want 2", cs.Replayed())
	}
	var tb bytes.Buffer
	if err := ts.Table().Write(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Errorf("resumed JSONL differs from uninterrupted run:\n%s---\n%s", jb.Bytes(), wantJSONL)
	}
	if !bytes.Equal(tb.Bytes(), wantTable) {
		t.Errorf("resumed table differs from uninterrupted run:\n%s---\n%s", tb.Bytes(), wantTable)
	}
}

// TestJournalTornWrite pins crash-safety of the journal format itself: a
// torn final line (partial write at the kill instant) is discarded on
// resume and the cell it belonged to re-runs.
func TestJournalTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := shard.JournalPath(dir, shard.Spec{})
	e := testExperiment()
	h, err := shard.HeaderFor(e, shard.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := shard.OpenJournal(path, h, false)
	if err != nil {
		t.Fatal(err)
	}
	cs := shard.NewCheckpointSink(j)
	cs.MaxFresh = 3
	e.Skip = cs.Skip
	if err := e.Run(context.Background(), cs); !errors.Is(err, shard.ErrInterrupted) {
		t.Fatal(err)
	}
	j.Close()

	// Tear the last record mid-line, as a crash mid-write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	j, err = shard.OpenJournal(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("torn journal loaded %d cells, want 2 (the torn third discarded)", j.Len())
	}

	// And a journal from a different grid refuses to resume.
	other := testExperiment()
	other.Seeds = 3
	oh, err := shard.HeaderFor(other, shard.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.OpenJournal(path, oh, true); err == nil {
		t.Error("journal from a different grid resumed")
	}

	// Nor does a journal holding a record outside the grid or the shard,
	// or one whose header names no valid shard. Shard 0/2 owns index 4 by
	// residue, but the grid has only 4 cells; index 1 belongs to shard 1/2.
	sp := shard.Spec{Index: 0, Count: 2}
	sh, err := shard.HeaderFor(testExperiment(), sp)
	if err != nil {
		t.Fatal(err)
	}
	b0 := runShard(t, sp)
	for name, data := range map[string][]byte{
		"index == total": withRecord(t, b0, 4),
		"foreign shard":  withRecord(t, b0, 1),
		"negative index": withRecord(t, b0, -2),
		"shard_count 0":  bytes.Replace(b0, []byte(`"shard_count":2`), []byte(`"shard_count":0`), 1),
	} {
		bad := shard.JournalPath(t.TempDir(), sp)
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := shard.OpenJournal(bad, sh, true); err == nil {
			j.Close()
			t.Errorf("%s: journal resumed", name)
		}
	}
}

// TestMergeDirMatchesMerge covers the file-system path: shard journals
// written by checkpointed shard runs, recombined by MergeDir.
func TestMergeDirMatchesMerge(t *testing.T) {
	wantJSONL, _, _ := runUnsharded(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sp := shard.Spec{Index: i, Count: 2}
		e := testExperiment()
		h, err := shard.HeaderFor(e, sp)
		if err != nil {
			t.Fatal(err)
		}
		j, err := shard.OpenJournal(shard.JournalPath(dir, sp), h, false)
		if err != nil {
			t.Fatal(err)
		}
		cs := shard.NewCheckpointSink(j)
		e.Skip = func(c core.Cell) bool { return sp.Skip(c) || cs.Skip(c) }
		if err := e.Run(context.Background(), cs); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var jb bytes.Buffer
	if _, err := shard.MergeDir(dir, core.NewJSONLSink(&jb)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Errorf("MergeDir output differs from unsharded run:\n%s---\n%s", jb.Bytes(), wantJSONL)
	}
}
