package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestCPUProfileWritesFile checks that -cpuprofile produces a non-empty
// profile once Stop returns, and that an unset flag makes Start and Stop
// no-ops.
func TestCPUProfileWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p := BindCPUProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i := 0; i < 1e7; i++ {
		sum += i % 7
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatalf("%s is empty (sum %d)", path, sum)
	}

	off := BindCPUProfile(flag.NewFlagSet("y", flag.ContinueOnError))
	if err := off.Start(); err != nil {
		t.Fatalf("Start without -cpuprofile: %v", err)
	}
	if err := off.Stop(); err != nil {
		t.Fatalf("Stop without -cpuprofile: %v", err)
	}
}
