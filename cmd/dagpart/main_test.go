package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMapPartCount drives -map, which always maps onto the bullion's 8
// sockets: the part count comes from the architecture, an explicit -parts 8
// agrees with it, and any other -parts is a usage error instead of a report
// sized for the wrong part count.
func TestRunMapPartCount(t *testing.T) {
	base := []string{"-app", "qr", "-scale", "tiny", "-map"}
	for _, tc := range []struct {
		name   string
		extra  []string
		code   int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
	}{
		{"map", nil, 0, "parts=8 ", ""},
		{"map-parts-8", []string{"-parts", "8"}, 0, "parts=8 ", ""},
		{"map-parts-4", []string{"-parts", "4"}, 2, "", "-parts 4"},
		{"map-nan-imbalance", []string{"-imbalance", "NaN"}, 1, "", "imbalance NaN"},
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
			if tc.code == 0 {
				_, weights, _ := strings.Cut(stdout.String(), "part weights: [")
				weights, _, _ = strings.Cut(weights, "]")
				if n := len(strings.Fields(weights)); n != 8 {
					t.Errorf("%d part weights reported, want 8:\n%s", n, stdout.String())
				}
			}
		})
	}
}

// TestRunInRejectsBadFiles drives -in through the DAG-file loader the file
// workload uses: weights that overflow int64 sums, which used to panic the
// partitioner or print negative weights, and a cycle exit 1 with the
// loader's error, while a valid file partitions.
func TestRunInRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		json   string
		code   int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
	}{
		{"edge-weights-overflow", `{"nodes":[{"weight":1},{"weight":1},{"weight":1}],"edges":[` +
			`{"from":0,"to":1,"weight":9223372036854775807},{"from":1,"to":2,"weight":9223372036854775807}]}`,
			1, "", "(MaxBytes)"},
		{"node-weights-overflow", `{"nodes":[{"weight":9223372036854775807},{"weight":9223372036854775807},` +
			`{"weight":1}],"edges":[{"from":0,"to":1,"weight":8},{"from":1,"to":2,"weight":8}]}`,
			1, "", "(MaxFlops)"},
		{"cycle", `{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":8},{"from":1,"to":0,"weight":8}]}`,
			1, "", "cycle"},
		{"chain", `{"nodes":[{"weight":5},{"weight":5},{"weight":5}],"edges":[{"from":0,"to":1,"weight":8},{"from":1,"to":2,"weight":8}]}`,
			0, "total node weight 15, total edge weight 16", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"-in", path, "-parts", "2"}, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}

// TestRunAppRejectsWrappingFlops drives -app with synthetic specs whose
// summed task flops pass 2^63: each must exit 1 with the generator's cap
// error instead of partitioning wrapped, negative weights.
func TestRunAppRejectsWrappingFlops(t *testing.T) {
	for _, spec := range []string{
		"random-layered?layers=100&width=100&cv=0&flops=1125899906842624&bytes=64",
		"noop?tasks=10000&flops=1125899906842624",
		"forkjoin?depth=13&fanout=2&cv=0&flops=1125899906842624&bytes=64",
	} {
		t.Run(spec, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-app", spec, "-parts", "2"}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			if want := "flops in total"; !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
			}
		})
	}
}
