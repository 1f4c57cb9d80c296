package workload

import (
	"strings"
	"testing"

	"numadag/internal/apps"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("random-layered?width=96&layers=24&cv=0.4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "random-layered" || len(s.Params) != 3 || s.Params["width"] != "96" {
		t.Fatalf("parsed %+v", s)
	}
	// Canonical rendering sorts parameters.
	if got := s.String(); got != "random-layered?cv=0.4&layers=24&width=96" {
		t.Fatalf("String() = %q", got)
	}
	if p, err := ParseSpec("jacobi"); err != nil || p.Name != "jacobi" || p.Params != nil {
		t.Fatalf("bare name: %+v, %v", p, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"", "?x=1", "a?=1", "a?x", "a?x=1&x=2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecParamHelpers(t *testing.T) {
	s, err := ParseSpec("x?n=12&f=0.5&sz=256K&big=2M&s=hi")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Int("n", 0); err != nil || n != 12 {
		t.Errorf("Int: %d, %v", n, err)
	}
	if n, err := s.Int("missing", 7); err != nil || n != 7 {
		t.Errorf("Int default: %d, %v", n, err)
	}
	if f, err := s.Float("f", 0); err != nil || f != 0.5 {
		t.Errorf("Float: %g, %v", f, err)
	}
	if b, err := s.Bytes("sz", 0); err != nil || b != 256<<10 {
		t.Errorf("Bytes K: %d, %v", b, err)
	}
	if b, err := s.Bytes("big", 0); err != nil || b != 2<<20 {
		t.Errorf("Bytes M: %d, %v", b, err)
	}
	if v := s.Str("s", ""); v != "hi" {
		t.Errorf("Str: %q", v)
	}
	if _, err := s.Int("s", 0); err == nil {
		t.Error("Int on non-integer accepted")
	}
	if _, err := s.Bytes("s", 0); err == nil {
		t.Error("Bytes on non-size accepted")
	}
}

// TestNewErrors mirrors the policy registry's error coverage: unknown
// names, unknown parameters, bad parameter values, and bad files all fail
// at resolution time with actionable messages.
func TestNewErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"no-such-workload", "unknown workload"},
		{"jacobi?nb=", "not an integer"},
		{"jacobi?mystery=1", "does not take parameter"},
		{"jacobi?nb=1", "invalid stencil params"}, // apps validation: NB < 2
		{"forkjoin?fanout=1", "invalid parameters"},
		{"random-layered?cv=2", "invalid parameters"},
		{"random-layered?seed=-1", "not an unsigned integer"},
		{"jacobi?scale=huge", "unknown scale"},
		{"file", "missing required parameter path"},
		{"file?path=no/such/file.json", "no such file"},
		{"file?format=dot&path=x", "unsupported format"},
	}
	for _, c := range cases {
		_, err := New(c.spec, 0)
		if err == nil {
			t.Errorf("New(%q) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	dummy := Factory(func(Spec, apps.Scale, uint64) (Workload, error) { return Workload{}, nil })
	for _, bad := range []string{"", "a?b", "a=b", "a b"} {
		if err := Register(bad, "", dummy); err == nil {
			t.Errorf("Register(%q) accepted", bad)
		}
	}
	if err := Register("jacobi", "", dummy); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register("nilfactory", "", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// TestSpecFloatRejectsNonFinite pins the fix for NaN and infinite spec
// numbers: they are rejected once, in Spec.Float, with an error naming the
// key. Before, range checks such as cv < 0 || cv > 1 (false for NaN) let
// them through and "random-layered?cv=NaN" panicked inside rt.Submit.
func TestSpecFloatRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "+Inf", "-Inf", "inf", "Infinity"} {
		s, err := ParseSpec("x?cv=" + v)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Float("cv", 0)
		if err == nil || !strings.Contains(err.Error(), "cv=") || !strings.Contains(err.Error(), "finite") {
			t.Errorf("Float(cv=%s) = %v, want a non-finite error naming cv", v, err)
		}
	}
	for _, spec := range []string{
		"random-layered?cv=NaN&layers=3&width=4",
		"random-layered?flops=+Inf",
		"random-layered?flops=-Inf",
		"forkjoin?cv=NaN",
		"forkjoin?flops=Inf",
		"noop?flops=NaN",
		"noop?flops=+Inf",
	} {
		if _, err := New(spec, apps.Tiny); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("New(%q) = %v, want a non-finite error", spec, err)
		}
	}
}

func TestSpecBytesRejectsOverflow(t *testing.T) {
	for _, v := range []string{"9223372036854775807K", "9999999999G", "-9999999999G"} {
		s, err := ParseSpec("x?b=" + v)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := s.Bytes("b", 0); err == nil {
			t.Errorf("Bytes(%s) = %d, want an overflow error", v, n)
		}
	}
}
