package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The figure1 panic regression: Enable returns a typed-nil *trace.Tracer
// when tracing is off, and assigning that directly to an interface-typed
// config field (core.TraceAttacher) yields a non-nil interface whose
// methods core then calls. Attacher must return an untyped nil instead.
func TestTraceAttacherNilWhenDisabled(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	to := BindTrace(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr := to.Enable(false); tr != nil {
		t.Fatalf("Enable(false) with no -trace = %v, want nil", tr)
	}
	if a := to.Attacher(); a != nil {
		t.Fatalf("disabled Attacher() = %#v, want untyped nil interface", a)
	}
	if tr := to.Enable(true); tr == nil {
		t.Fatal("Enable(true) did not create a tracer")
	}
	if a := to.Attacher(); a == nil {
		t.Fatal("enabled Attacher() = nil, want the tracer")
	}
}

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
