package main

import (
	"bytes"
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
