// Sharded-sweep equivalence suite: the cmd/sweep sharding/resume/merge
// modes must reproduce an unsharded run byte for byte.
//
// TestShardedSweepCLI builds the real sweep binary and drives it through
// three stories — 3-shard fan-out + merge, interrupt + resume (-maxcells
// as the deterministic kill), and the resume of one crashed shard of a
// 3-shard run — comparing every JSONL/CSV/table output against one
// unsharded reference run. Env-gated (NUMADAG_SHARDED=1) because it builds
// a binary and runs the grid several times; CI runs it as its own blocking
// step (`make test-sharded`).
package numadag_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// sweepArgs is the fixed grid every invocation in this suite sweeps:
// A1-window, one app, tiny scale, 2 seeds = 10 cells over 5 variants.
var sweepArgs = []string{"-exp", "window", "-apps", "jacobi", "-scale", "tiny", "-seeds", "2"}

func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sweep")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sweep: %v\n%s", err, out)
	}
	return bin
}

// runSweep runs the binary with the suite's grid plus extra flags and
// returns stdout (the rendered table in full-stream modes) and stderr (the
// journal modes' progress report).
func runSweep(t *testing.T, bin string, extra ...string) (stdout []byte, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, append(append([]string{}, sweepArgs...), extra...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", extra, err, errb.Bytes())
	}
	return out.Bytes(), errb.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestShardedSweepCLI(t *testing.T) {
	if os.Getenv("NUMADAG_SHARDED") == "" {
		t.Skip("set NUMADAG_SHARDED=1 (or run `make test-sharded`) to run the sharded CLI suite")
	}
	bin := buildSweep(t)
	work := t.TempDir()
	path := func(name string) string { return filepath.Join(work, name) }

	// The unsharded reference outputs.
	wantTable, _ := runSweep(t, bin, "-jsonl", path("ref.jsonl"), "-csv", path("ref.csv"))
	wantJSONL := readFile(t, path("ref.jsonl"))
	wantCSV := readFile(t, path("ref.csv"))

	t.Run("shard-merge", func(t *testing.T) {
		dir := path("shards")
		for i := 0; i < 3; i++ {
			runSweep(t, bin, "-shard", fmt.Sprintf("%d/3", i), "-out", dir)
		}
		gotTable, _ := runSweep(t, bin, "-merge", dir, "-jsonl", path("m.jsonl"), "-csv", path("m.csv"))
		if !bytes.Equal(readFile(t, path("m.jsonl")), wantJSONL) {
			t.Error("merged JSONL differs from unsharded run")
		}
		if !bytes.Equal(readFile(t, path("m.csv")), wantCSV) {
			t.Error("merged CSV differs from unsharded run")
		}
		if !bytes.Equal(gotTable, wantTable) {
			t.Errorf("merged table differs from unsharded run:\n%s---\n%s", gotTable, wantTable)
		}
	})

	t.Run("interrupt-resume", func(t *testing.T) {
		dir := path("ckpt")
		// First run stops (resumably) after 4 of the 10 cells.
		if _, stderr := runSweep(t, bin, "-out", dir, "-maxcells", "4"); !strings.Contains(stderr, "4 cells run") {
			t.Fatalf("interrupted run did not report its cell count:\n%s", stderr)
		}
		// The resumed run executes only the remaining 6 and reproduces the
		// reference outputs exactly.
		gotTable, stderr := runSweep(t, bin, "-out", dir, "-resume", "-jsonl", path("r.jsonl"), "-csv", path("r.csv"))
		if !strings.Contains(stderr, "6 cells run, 4 resumed") {
			t.Errorf("resume re-ran the wrong cells:\n%s", stderr)
		}
		if !bytes.Equal(readFile(t, path("r.jsonl")), wantJSONL) {
			t.Error("resumed JSONL differs from uninterrupted run")
		}
		if !bytes.Equal(readFile(t, path("r.csv")), wantCSV) {
			t.Error("resumed CSV differs from uninterrupted run")
		}
		if !bytes.Equal(gotTable, wantTable) {
			t.Errorf("resumed table differs from uninterrupted run:\n%s---\n%s", gotTable, wantTable)
		}
	})

	t.Run("shard-resume", func(t *testing.T) {
		dir := path("crashed")
		runSweep(t, bin, "-shard", "0/3", "-out", dir)
		runSweep(t, bin, "-shard", "2/3", "-out", dir)
		// Shard 1 "crashes" after one cell, then resumes from its journal.
		if _, stderr := runSweep(t, bin, "-shard", "1/3", "-out", dir, "-maxcells", "1"); !strings.Contains(stderr, "1 cells run") {
			t.Fatalf("interrupted shard did not report its cell count:\n%s", stderr)
		}
		if _, stderr := runSweep(t, bin, "-shard", "1/3", "-out", dir, "-resume"); !strings.Contains(stderr, "2 cells run, 1 resumed") {
			t.Errorf("shard resume re-ran the wrong cells:\n%s", stderr)
		}
		gotTable, _ := runSweep(t, bin, "-merge", dir, "-jsonl", path("c.jsonl"), "-csv", path("c.csv"))
		if !bytes.Equal(readFile(t, path("c.jsonl")), wantJSONL) {
			t.Error("resumed-shard JSONL differs from unsharded run")
		}
		if !bytes.Equal(readFile(t, path("c.csv")), wantCSV) {
			t.Error("resumed-shard CSV differs from unsharded run")
		}
		if !bytes.Equal(gotTable, wantTable) {
			t.Errorf("resumed-shard table differs from unsharded run:\n%s---\n%s", gotTable, wantTable)
		}
	})
}
