package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"numadag/internal/policy"
)

// linkLane matches a Gantt row for a memory controller or port that
// carried at least one flow.
var linkLane = regexp.MustCompile(`(?m)^(mc|port)\d+ *\|[.=]*=[.=]*\|$`)

// TestRunFlags drives rgpsim through its flags: the tracer outputs (-gantt
// and -trace), a runtime option the simulator rejects, and an unknown
// policy.
func TestRunFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	base := []string{"-app", "jacobi", "-scale", "tiny"}
	for _, tc := range []struct {
		name   string
		extra  []string
		code   int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
		check  func(t *testing.T, stdout string)
	}{
		{"list", []string{"-list"}, 0, "policies:\n  " + strings.Join(policy.Names(), "\n  ") + "\n", "", nil},
		{"gantt", []string{"-gantt"}, 0, "\ncore 0  |", "", func(t *testing.T, stdout string) {
			if !linkLane.MatchString(stdout) {
				t.Errorf("gantt has no busy link lane:\n%s", stdout)
			}
		}},
		{"trace", []string{"-trace", tracePath}, 0, "trace written to " + tracePath, "", func(t *testing.T, _ string) {
			first := readTrace(t, tracePath)
			again := filepath.Join(dir, "again.json")
			if code := run(append(append([]string(nil), base...), "-trace", again), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
				t.Fatalf("second traced run exited %d", code)
			}
			if !bytes.Equal(first, readTrace(t, again)) {
				t.Error("trace bytes differ between two identical runs")
			}
		}},
		{"negative-window", []string{"-window", "-3"}, 1, "", "WindowSize", nil},
		{"unknown-policy", []string{"-policy", "HEFT"}, 1, "", "(registered: " + strings.Join(policy.Names(), ", ") + ")", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append(append([]string(nil), base...), tc.extra...), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
		})
	}
}

// readTrace returns the trace file's bytes after checking it is a Chrome
// trace object with a non-empty traceEvents array.
func readTrace(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: empty traceEvents", path)
	}
	return data
}
