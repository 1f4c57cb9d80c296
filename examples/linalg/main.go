// Linalg: run the symmetric matrix inversion benchmark (the three-sweep
// Cholesky inversion DAG) under the expert-programmer policy, trace it, and
// emit both a Chrome trace file and a terminal Gantt chart of the
// factorization pipeline (core rows, then the links that carried traffic).
//
//	go run ./examples/linalg
//	# then open syminv_trace.json in chrome://tracing or ui.perfetto.dev
package main

import (
	"fmt"
	"log"
	"os"

	"numadag"
)

func main() {
	pol, err := numadag.NewPolicy("EP")
	if err != nil {
		log.Fatal(err)
	}
	tr := numadag.NewTracer()

	eng := numadag.NewEngine()
	m := numadag.NewMachine(numadag.BullionS16(), eng)
	opts := numadag.DefaultRuntimeOptions()
	opts.Observer = tr.AttachMachine(m, 0, "syminv EP")
	r := numadag.NewRuntime(m, pol, opts)

	// Build via the app registry (same generator the evaluation uses).
	app, err := numadag.AppByName("syminv", numadag.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	app.Build(r)

	res := r.Run()
	fmt.Printf("symmetric matrix inversion under EP: %s\n\n", res.Summary())

	if err := tr.WriteGantt(os.Stdout, 0, 100); err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteFile("syminv_trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntrace written to syminv_trace.json (open in chrome://tracing)")
}
