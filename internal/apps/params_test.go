package apps

import (
	"testing"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

func TestWithParamsConstructors(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (App, error)
	}{
		{"jacobi", func() (App, error) {
			return NewJacobiWith(StencilParams{NB: 3, TileBytes: 8 * kib, Iters: 1})
		}},
		{"red-black", func() (App, error) {
			return NewRedBlackWith(StencilParams{NB: 3, TileBytes: 8 * kib, Iters: 1})
		}},
		{"gauss-seidel", func() (App, error) {
			return NewGaussSeidelWith(StencilParams{NB: 3, TileBytes: 8 * kib, Iters: 1})
		}},
		{"nstream", func() (App, error) {
			return NewNStreamWith(NStreamParams{Chunks: 3, ChunkBytes: 8 * kib, Iters: 1})
		}},
		{"cg", func() (App, error) {
			return NewCGWith(CGParams{Blocks: 3, ABlockBytes: 16 * kib, VecBlockBytes: 8 * kib, Iters: 1})
		}},
		{"inthist", func() (App, error) {
			return NewIntegralHistogramWith(IntHistParams{NB: 3, ImgTileBytes: 16 * kib, HistBytes: 4 * kib, Frames: 1})
		}},
		{"qr", func() (App, error) {
			return NewQRWith(DenseParams{NT: 3, TileBytes: 8 * kib})
		}},
		{"syminv", func() (App, error) {
			return NewSymInvWith(DenseParams{NT: 3, TileBytes: 8 * kib})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			app, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			if app.Name != c.name {
				t.Fatalf("name = %q", app.Name)
			}
			m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
			r := rt.NewRuntime(m, dfifoStub{}, rt.Options{})
			app.Build(r)
			if r.Graph().Len() == 0 {
				t.Fatal("no tasks")
			}
			r.Run()
			if err := r.AuditSchedule(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSizeMatchesBuild pins the up-front size each constructor checks
// against MaxTasks and MaxBytes: at every preset, the computed task count
// and region bytes equal the built graph's.
func TestSizeMatchesBuild(t *testing.T) {
	sizes := map[string]func(Scale) (tasks, bytes int64){
		"jacobi":       func(s Scale) (int64, int64) { return StencilPreset(s).size(2) },
		"red-black":    func(s Scale) (int64, int64) { return StencilPreset(s).size(1) },
		"gauss-seidel": func(s Scale) (int64, int64) { return StencilPreset(s).size(1) },
		"nstream":      func(s Scale) (int64, int64) { return NStreamPreset(s).size() },
		"cg":           func(s Scale) (int64, int64) { return CGPreset(s).size() },
		"inthist":      func(s Scale) (int64, int64) { return IntHistPreset(s).size() },
		"qr":           func(s Scale) (int64, int64) { return DensePreset(s).qrSize() },
		"syminv":       func(s Scale) (int64, int64) { return DensePreset(s).symInvSize() },
	}
	for _, name := range Names() {
		for _, s := range []Scale{Tiny, Small, Paper} {
			app, err := ByName(name, s)
			if err != nil {
				t.Fatal(err)
			}
			r := buildOn(t, app)
			var bytes int64
			for _, reg := range r.Mem().Regions() {
				bytes += reg.Bytes()
			}
			wantTasks, wantBytes := sizes[name](s)
			if got := int64(r.Graph().Len()); got != wantTasks || bytes != wantBytes {
				t.Errorf("%s at %s: built %d tasks and %d bytes, computed %d and %d", name, s, got, bytes, wantTasks, wantBytes)
			}
		}
	}
}

func TestWithParamsValidation(t *testing.T) {
	if _, err := NewJacobiWith(StencilParams{NB: 1, TileBytes: 1, Iters: 1}); err == nil {
		t.Error("NB=1 accepted")
	}
	if _, err := NewNStreamWith(NStreamParams{Chunks: 0, ChunkBytes: 1, Iters: 1}); err == nil {
		t.Error("0 chunks accepted")
	}
	if _, err := NewCGWith(CGParams{Blocks: 2, ABlockBytes: 0, VecBlockBytes: 1, Iters: 1}); err == nil {
		t.Error("0 matrix bytes accepted")
	}
	if _, err := NewIntegralHistogramWith(IntHistParams{NB: 2, ImgTileBytes: 1, HistBytes: 1, Frames: 0}); err == nil {
		t.Error("0 frames accepted")
	}
	if _, err := NewQRWith(DenseParams{NT: 1, TileBytes: 1}); err == nil {
		t.Error("NT=1 accepted")
	}
	if _, err := NewSymInvWith(DenseParams{NT: 2, TileBytes: 0}); err == nil {
		t.Error("0 tile bytes accepted")
	}
}

func TestScaleStringAndPresetMonotone(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Paper.String() != "paper" {
		t.Fatal("scale labels")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale label empty")
	}
	// Presets must grow with scale (task counts monotone).
	count := func(s Scale, name string) int {
		app, err := ByName(name, s)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(machine.BullionS16(), sim.NewEngine())
		r := rt.NewRuntime(m, dfifoStub{}, rt.Options{})
		app.Build(r)
		return r.Graph().Len()
	}
	for _, name := range Names() {
		tiny, small, paper := count(Tiny, name), count(Small, name), count(Paper, name)
		if !(tiny < small && small < paper) {
			t.Errorf("%s: task counts not monotone: %d, %d, %d", name, tiny, small, paper)
		}
	}
}
