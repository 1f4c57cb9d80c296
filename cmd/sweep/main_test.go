package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlags drives sweep through its flags: two runs of one grid give
// byte-identical stdout, -jsonl and -csv files, with one JSONL line and one
// CSV row per cell in canonical order; an unknown -exp exits 1 naming it,
// and an unknown flag exits 2.
func TestRunFlags(t *testing.T) {
	args := []string{"-exp", "window", "-apps", "jacobi", "-scale", "tiny", "-seeds", "2"}
	const cells = 10 // 5 window sizes x 2 seeds
	t.Run("repeatable", func(t *testing.T) {
		stdout, jsonl, csv := runGrid(t, args...)
		stdout2, jsonl2, csv2 := runGrid(t, args...)
		if !bytes.Equal(stdout, stdout2) {
			t.Errorf("stdout differs between two runs:\n%s\n---\n%s", stdout, stdout2)
		}
		if !bytes.Equal(jsonl, jsonl2) {
			t.Error("-jsonl bytes differ between two runs")
		}
		if !bytes.Equal(csv, csv2) {
			t.Error("-csv bytes differ between two runs")
		}
		checkCells(t, jsonl, cells)
		if n := strings.Count(string(csv), "\n"); n != cells+1 {
			t.Errorf("-csv has %d lines, want a header and one row per cell (%d)", n, cells+1)
		}
		if want := "A1: RGP+LAS makespan vs window size (normalized to best)\n"; !strings.HasPrefix(string(stdout), want) {
			t.Errorf("stdout does not start with %q:\n%s", want, stdout)
		}
	})
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown-exp", []string{"-exp", "latency", "-scale", "tiny"}, 1, `unknown experiment "latency"`},
		{"unknown-flag", []string{"-merge", "run/"}, 2, "-merge"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}

// runGrid runs sweep with args plus -jsonl and -csv files in a fresh
// directory and returns its stdout and the two files' bytes.
func runGrid(t *testing.T, args ...string) (stdout, jsonl, csv []byte) {
	t.Helper()
	dir := t.TempDir()
	jp, cp := filepath.Join(dir, "cells.jsonl"), filepath.Join(dir, "cells.csv")
	var out, errb bytes.Buffer
	if code := run(append(args, "-jsonl", jp, "-csv", cp), &out, &errb); code != 0 {
		t.Fatalf("sweep %v exited %d:\n%s", args, code, errb.String())
	}
	return out.Bytes(), readFile(t, jp), readFile(t, cp)
}

// checkCells checks that a JSONL stream holds want cells, one per line,
// in canonical order.
func checkCells(t *testing.T, jsonl []byte, want int) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(jsonl), "\n"), "\n")
	if len(lines) != want {
		t.Fatalf("%d JSONL lines, want one per cell (%d)", len(lines), want)
	}
	for i, line := range lines {
		var cell struct{ Index int }
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if cell.Index != i {
			t.Errorf("line %d holds cell %d", i, cell.Index)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
