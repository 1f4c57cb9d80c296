// Package cliutil holds the flag surface shared by the numadag commands
// (cmd/sweep, cmd/figure1, cmd/rgpsim, cmd/dagen, cmd/dagpart, cmd/dcsim):
// the apps/scale/seeds/machine flags and their validation, the -jsonl/-csv
// streaming outputs, the -trace sink and the -cpuprofile CPU profile, so
// each flag's name, usage text and parsing live in exactly one place.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/trace"
)

// ScaleFlag binds -scale and returns a getter that validates the value via
// apps.ParseScale.
func ScaleFlag(fs *flag.FlagSet, def string) func() (apps.Scale, error) {
	v := fs.String("scale", def, "problem scale: tiny, small, paper")
	return func() (apps.Scale, error) { return apps.ParseScale(*v) }
}

// AppsFlag binds -apps and returns a getter for the comma-split workload
// spec list (nil when the flag is unset, so callers keep their defaults).
func AppsFlag(fs *flag.FlagSet, usage string) func() []string {
	v := fs.String("apps", "", usage)
	return func() []string {
		if *v == "" {
			return nil
		}
		return strings.Split(*v, ",")
	}
}

// SeedsFlag binds -seeds with the command's default replicate count.
func SeedsFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("seeds", def, "seeds averaged per cell")
}

// MachineFlag binds -machine and returns a getter resolving the name
// through the machine registry.
func MachineFlag(fs *flag.FlagSet, def string) func() (machine.Config, error) {
	v := fs.String("machine", def, "machine topology: bullion, 2socket, 4socket, uniform")
	return func() (machine.Config, error) { return machine.ByName(*v) }
}

// Outputs binds the streaming per-cell output flags (-jsonl and, when
// withCSV, -csv) and turns them into open sinks.
type Outputs struct {
	JSONL string
	CSV   string
	files []*os.File
}

// BindOutputs registers the output flags on fs. cmd/figure1 passes
// withCSV=false because its -csv means "the aggregated table as CSV", not
// the per-cell stream.
func BindOutputs(fs *flag.FlagSet, withCSV bool) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.JSONL, "jsonl", "", "stream per-cell results as JSON lines to this file")
	if withCSV {
		fs.StringVar(&o.CSV, "csv", "", "stream per-cell results as CSV to this file")
	}
	return o
}

// Sinks opens the requested output files and returns their sinks. Close
// the Outputs when the run is over.
func (o *Outputs) Sinks() ([]core.Sink, error) {
	var sinks []core.Sink
	for _, out := range []struct {
		path string
		mk   func(f *os.File) core.Sink
	}{
		{o.JSONL, func(f *os.File) core.Sink { return core.NewJSONLSink(f) }},
		{o.CSV, func(f *os.File) core.Sink { return core.NewCSVSink(f) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			o.Close()
			return nil, err
		}
		o.files = append(o.files, f)
		sinks = append(sinks, out.mk(f))
	}
	return sinks, nil
}

// Close closes the files Sinks opened.
func (o *Outputs) Close() error {
	var firstErr error
	for _, f := range o.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	o.files = nil
	return firstErr
}

// TraceOut binds -trace: a Chrome-trace (Perfetto-loadable) recording of
// the run.
type TraceOut struct {
	Path   string
	Tracer *trace.Tracer
}

// BindTrace registers -trace on fs.
func BindTrace(fs *flag.FlagSet) *TraceOut {
	t := &TraceOut{}
	fs.StringVar(&t.Path, "trace", "", "write a Chrome trace of the run to this file (load in Perfetto)")
	return t
}

// Enable creates the tracer when -trace (or force, for callers like rgpsim
// -gantt that imply tracing) asks for one; nil otherwise.
func (t *TraceOut) Enable(force bool) *trace.Tracer {
	if t.Path == "" && !force {
		return nil
	}
	t.Tracer = trace.NewTracer()
	return t.Tracer
}

// Write lands the trace on disk if a path was given.
func (t *TraceOut) Write() error {
	if t.Path == "" || t.Tracer == nil {
		return nil
	}
	return t.Tracer.WriteFile(t.Path)
}

// CPUProfile binds -cpuprofile: a pprof CPU profile of the command's run,
// for `go tool pprof`.
type CPUProfile struct {
	Path string
	f    *os.File
}

// BindCPUProfile registers -cpuprofile on fs.
func BindCPUProfile(fs *flag.FlagSet) *CPUProfile {
	p := &CPUProfile{}
	fs.StringVar(&p.Path, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	return p
}

// Start begins profiling into Path; a no-op when -cpuprofile is unset. Call
// Stop when the command's work is done, or the profile is left unwritten.
func (p *CPUProfile) Start() error {
	if p.Path == "" {
		return nil
	}
	f, err := os.Create(p.Path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

// Stop ends a running profile and closes its file; a no-op otherwise.
func (p *CPUProfile) Stop() error {
	if p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.f.Close()
	p.f = nil
	return err
}

// Fatal prints "cmd: err" and exits 1 — the commands' shared error exit.
func Fatal(cmd string, err error) {
	fmt.Fprintln(os.Stderr, cmd+":", err)
	os.Exit(1)
}
