package apps

import (
	"numadag/internal/memory"
	"numadag/internal/rt"
)

// IntHistParams sizes the integral histogram benchmark.
type IntHistParams struct {
	// NB is the image tile grid dimension.
	NB int
	// ImgTileBytes is the size of one image tile (streamed input).
	ImgTileBytes int64
	// HistBytes is the size of one propagated histogram tile.
	HistBytes int64
	// Frames is the number of frames processed (scans pipelined over the
	// same histogram array).
	Frames int
}

// IntHistPreset returns per-scale default sizes.
func IntHistPreset(s Scale) IntHistParams {
	switch s {
	case Tiny:
		return IntHistParams{NB: 4, ImgTileBytes: 64 * kib, HistBytes: 16 * kib, Frames: 2}
	case Small:
		return IntHistParams{NB: 8, ImgTileBytes: 256 * kib, HistBytes: 32 * kib, Frames: 4}
	default:
		return IntHistParams{NB: 16, ImgTileBytes: 512 * kib, HistBytes: 64 * kib, Frames: 12}
	}
}

// NewIntegralHistogram builds the integral histogram benchmark with the
// cross-weave scan (Porikli's algorithm, as the OmpSs benchmark implements
// it): per frame, a horizontal pass propagates histograms left-to-right
// within every tile row (rows run in parallel), then a vertical pass
// propagates top-to-bottom within every column (columns run in parallel).
// The vertical pass runs against the row-major data distribution, which is
// what makes the benchmark NUMA-hostile — the paper's Figure 1 has DFIFO
// collapsing to 0.40 here. Expert distribution is block rows.
func NewIntegralHistogram(s Scale) App {
	p := IntHistPreset(s)
	return App{Name: "inthist", Build: func(r *rt.Runtime) { buildIntHist(r, p) }}
}

func buildIntHist(r *rt.Runtime, p IntHistParams) {
	sockets := r.Machine().Sockets()
	var nm namer
	img := make([][]*memory.Region, p.NB)
	hist := make([][]*memory.Region, p.NB)
	for i := 0; i < p.NB; i++ {
		img[i] = make([]*memory.Region, p.NB)
		hist[i] = make([]*memory.Region, p.NB)
		for j := 0; j < p.NB; j++ {
			img[i][j] = r.Mem().Alloc(nm.index("img", i, j), p.ImgTileBytes, memory.Deferred, 0)
			hist[i][j] = r.Mem().Alloc(nm.index("hist", i, j), p.HistBytes, memory.Deferred, 0)
		}
	}
	var acc []rt.Access // one list for every task: Submit copies it
	// Load the image (first touch of the streamed input).
	for i := 0; i < p.NB; i++ {
		for j := 0; j < p.NB; j++ {
			acc = append(acc[:0], rt.Access{Region: img[i][j], Mode: rt.Out})
			r.Submit(rt.TaskSpec{
				Label:    nm.call("load", i, j),
				Flops:    float64(p.ImgTileBytes / 8),
				Accesses: acc,
				EPSocket: blockRowOwner(i, p.NB, sockets),
			})
		}
	}
	for f := 0; f < p.Frames; f++ {
		// Horizontal pass: row scans, parallel across rows.
		for i := 0; i < p.NB; i++ {
			for j := 0; j < p.NB; j++ {
				acc = append(acc[:0],
					rt.Access{Region: hist[i][j], Mode: rt.Out},
					rt.Access{Region: img[i][j], Mode: rt.In})
				if j > 0 {
					acc = append(acc, rt.Access{Region: hist[i][j-1], Mode: rt.In})
				}
				r.Submit(rt.TaskSpec{
					Label:    nm.call("hscan", f, i, j),
					Flops:    2*float64(p.ImgTileBytes/8) + float64(p.HistBytes/8),
					Accesses: acc,
					EPSocket: blockRowOwner(i, p.NB, sockets),
				})
			}
		}
		// Vertical pass: column scans, parallel across columns; every step
		// except the first reads the histogram tile of the row above.
		for j := 0; j < p.NB; j++ {
			for i := 1; i < p.NB; i++ {
				acc = append(acc[:0],
					rt.Access{Region: hist[i][j], Mode: rt.InOut},
					rt.Access{Region: hist[i-1][j], Mode: rt.In})
				r.Submit(rt.TaskSpec{
					Label:    nm.call("vscan", f, i, j),
					Flops:    2 * float64(p.HistBytes/8),
					Accesses: acc,
					EPSocket: blockRowOwner(i, p.NB, sockets),
				})
			}
		}
	}
}
