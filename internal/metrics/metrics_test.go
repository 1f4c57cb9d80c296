package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != 2 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	if got := Speedup(100, 200); got != 0.5 {
		t.Fatalf("Speedup = %v, want 0.5", got)
	}
	if !math.IsNaN(Speedup(100, 0)) {
		t.Fatal("division by zero not NaN")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty geomean not NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("negative input not NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, 0})) {
		t.Fatal("zero input not NaN")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean not NaN")
	}
}

// Property: geomean lies between min and max.
func TestPropertyGeoMeanBounded(t *testing.T) {
	f := func(raw [5]uint16) bool {
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geomean of speedups is invariant under baseline scaling.
func TestPropertyGeoMeanScaleInvariance(t *testing.T) {
	f := func(raw [4]uint16, scale16 uint16) bool {
		scale := float64(scale16%100) + 1
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			x := float64(v%500) + 1
			a[i] = x
			b[i] = x * scale
		}
		return math.Abs(GeoMean(b)/GeoMean(a)-scale) < 1e-9*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableSetGetRows(t *testing.T) {
	tb := NewTable("test", "a", "b")
	tb.Set("r1", "a", 1.5)
	tb.Set("r1", "b", 2.5)
	tb.Set("r2", "a", 3.5)
	if got := tb.Get("r1", "b"); got != 2.5 {
		t.Fatalf("Get = %v", got)
	}
	if !math.IsNaN(tb.Get("r2", "b")) {
		t.Fatal("absent cell not NaN")
	}
	if !math.IsNaN(tb.Get("zzz", "a")) {
		t.Fatal("absent row not NaN")
	}
	rows := tb.Rows()
	if len(rows) != 2 || rows[0] != "r1" || rows[1] != "r2" {
		t.Fatalf("rows = %v", rows)
	}
	vals := tb.ColumnValues("a")
	if len(vals) != 2 || vals[0] != 1.5 || vals[1] != 3.5 {
		t.Fatalf("column values = %v", vals)
	}
}

func TestTableWrite(t *testing.T) {
	tb := NewTable("title here", "x", "y")
	tb.Set("app1", "x", 1.234)
	tb.Set("app1", "y", 0.5)
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"title here", "app1", "1.234", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableWriteAbsentCellDash(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.Set("r", "x", 1)
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-") {
		t.Error("absent cell not rendered as dash")
	}
}

func TestTableWriteBars(t *testing.T) {
	tb := NewTable("bars", "p")
	tb.Set("app", "p", 2.0)
	var sb strings.Builder
	if err := tb.WriteBars(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
	if !strings.Contains(out, "2.000") {
		t.Error("value not rendered")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Set("r1", "a", 1.5)
	tb.Set("r2", "b", 2.25)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"row,a,b", "r1,1.500000,", "r2,,2.250000"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
