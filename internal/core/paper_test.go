package core

import (
	"math"
	"testing"
)

// Known gaps are checked against two thresholds. A gap closes when the model
// comes within gapClosed of the paper, the widest band a held claim gets: it
// would pass as a claim, so it must become one. A gap moves when the model
// leaves gapDrift of its recorded value: single seeds of the DFIFO values
// spread by up to ±7% (jacobi, 0.678–0.774 over six seeds) and the 3-seed
// mean by about ±4%, so a 10% move is a change in the model, not noise.
const (
	gapClosed = 0.08
	gapDrift  = 0.10
)

// TestFigure1PaperClaims runs Figure 1 as cmd/figure1 does (paper scale,
// 3 seeds) and checks the model against every value in Figure1Paper. A
// value the model reproduces is a claim, pinned inside a band around the
// paper's value with the band's reason beside it. A value it does not
// reproduce is a known gap, recorded with the model's value. The test fails
// when a claim leaves its band, when a known gap closes (promote it to a
// claim with a band) and when a known gap moves (measure it again and record
// the new value). Never widen a band to let a change pass.
func TestFigure1PaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Figure 1")
	}
	type key struct{ app, policy string }
	claims := map[key]struct {
		band float64 // allowed |model/paper - 1|
		why  string
	}{
		{"geomean", "RGP+LAS"}: {0.05, "the mean of eight apps barely moves with the seed " +
			"(1.139-1.158 over six single seeds); 5% keeps the headline, a 6-18% gain over LAS, " +
			"and is over twice today's offset (+2.1%)"},
		{"nstream", "EP"}: {0.06, "LAS's random placement of the data-less init tasks sets " +
			"NStream's baseline: single seeds span 1.73-1.85 (±3.5%), the 3-seed mean about ±2%; " +
			"today's offset is +1.1%"},
		{"nstream", "RGP+LAS"}: {0.08, "the seed moves both RGP's partition and the LAS baseline: " +
			"single seeds span 1.61-1.75 (±4.3%), the 3-seed mean about ±2.5%; the model sits " +
			"4.7% low, and 8% is that offset plus the mean's noise, no wider"},
	}
	gaps := map[key]struct {
		model float64 // the model's value when the gap was recorded
		why   string
	}{
		{"inthist", "DFIFO"}: {0.481, "LAS runs 18% of bytes remote and DFIFO 83%; " +
			"the model's remote cost is too mild here (ROADMAP item 2)"},
		{"jacobi", "DFIFO"}: {0.722, "below the model's floor r_LAS/r_DFIFO = 0.60: " +
			"no choice of bullion constants reaches it (ROADMAP item 2)"},
		{"nstream", "DFIFO"}: {0.774, "below the model's floor r_LAS/r_DFIFO = 0.65 " +
			"(ROADMAP item 2)"},
		{"syminv", "DFIFO"}: {0.986, "under LAS 53% of the core-time is idle and 6% is " +
			"memory stall, and DFIFO adds only 1.9% more stall, so remote bytes cannot " +
			"make it the paper's 47% slower (ROADMAP item 2)"},
	}
	tb, err := Figure1(DefaultFigure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(claims) + len(gaps); n != len(Figure1Paper) {
		t.Errorf("%d claims and gaps for %d paper values: each value is exactly one of them", n, len(Figure1Paper))
	}
	for _, p := range Figure1Paper {
		k := key{p.App, p.Policy}
		got := tb.Get(p.App, p.Policy)
		off := got/p.Speedup - 1
		if c, ok := claims[k]; ok {
			t.Logf("claim %s %s: model %.3f, paper %.2f (%+.1f%%, band ±%.0f%%)", p.App, p.Policy, got, p.Speedup, 100*off, 100*c.band)
			if !(math.Abs(off) <= c.band) {
				t.Errorf("claim %s %s broken: model %.3f is %+.1f%% off the paper's %.2f, outside its ±%.0f%% band (%s)",
					p.App, p.Policy, got, 100*off, p.Speedup, 100*c.band, c.why)
			}
			continue
		}
		g, ok := gaps[k]
		if !ok {
			t.Errorf("paper value %s %s %.2f is neither a claim nor a known gap", p.App, p.Policy, p.Speedup)
			continue
		}
		t.Logf("known gap %s %s: model %.3f, paper %.2f (%s)", p.App, p.Policy, got, p.Speedup, g.why)
		switch {
		case math.Abs(off) <= gapClosed:
			t.Errorf("KNOWN GAP CLOSED: %s %s: model %.3f is within %.0f%% of the paper's %.2f; promote it to a claim with a band",
				p.App, p.Policy, got, 100*gapClosed, p.Speedup)
		case !(math.Abs(got/g.model-1) <= gapDrift):
			t.Errorf("known gap moved: %s %s: model %.3f, recorded %.3f (paper %.2f); measure it again and record it",
				p.App, p.Policy, got, g.model, p.Speedup)
		}
	}
}
