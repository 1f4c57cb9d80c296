package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlags drives figure1 through its flags: two runs of one grid give
// byte-identical stdout, -jsonl and -csv files, with one JSONL line per
// cell in canonical order; -seeds 0 runs and titles one replicate; a bad
// -scale exits 1 and an unknown flag 2.
func TestRunFlags(t *testing.T) {
	args := []string{"-apps", "jacobi", "-scale", "tiny", "-seeds", "1"}
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
		checkCells(t, jsonl, 4) // jacobi x {LAS, DFIFO, RGP+LAS, EP} x 1 seed
		if want := "tiny scale, 1 seed(s))\n"; !strings.Contains(string(stdout), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
		if want := "\npaper reference (speedup over LAS): "; !strings.Contains(string(stdout), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
		if !strings.HasPrefix(string(csv), "row,DFIFO,RGP+LAS,EP\n") {
			t.Errorf("-csv is not the table:\n%s", csv)
		}
	})
	t.Run("seeds-0", func(t *testing.T) {
		stdout, jsonl, _ := runGrid(t, "-apps", "jacobi", "-scale", "tiny", "-seeds", "0")
		if want := "tiny scale, 1 seed(s))\n"; !strings.Contains(string(stdout), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
		checkCells(t, jsonl, 4)
	})
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-scale", []string{"-scale", "huge"}, 1, `figure1: apps: unknown scale "huge"`},
		{"unknown-flag", []string{"-shard", "0/2"}, 2, "-shard"},
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

// runGrid runs figure1 with args plus -jsonl and -csv files in a fresh
// directory and returns its stdout and the two files' bytes.
func runGrid(t *testing.T, args ...string) (stdout, jsonl, csv []byte) {
	t.Helper()
	dir := t.TempDir()
	jp, cp := filepath.Join(dir, "cells.jsonl"), filepath.Join(dir, "fig1.csv")
	var out, errb bytes.Buffer
	if code := run(append(args, "-jsonl", jp, "-csv", cp), &out, &errb); code != 0 {
		t.Fatalf("figure1 %v exited %d:\n%s", args, code, errb.String())
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
