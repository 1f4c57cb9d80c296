package policy

import (
	"strings"
	"testing"

	"numadag/internal/rt"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("RGP+LAS?matching=random&refine=off")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "RGP+LAS" || s.Params["matching"] != "random" || s.Params["refine"] != "off" {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.String(); got != "RGP+LAS?matching=random&refine=off" {
		t.Fatalf("String() = %q", got)
	}
	if s, err := ParseSpec("LAS"); err != nil || s.Name != "LAS" || s.Params != nil {
		t.Fatalf("bare name: %+v, %v", s, err)
	}
	for _, bad := range []string{"", "?x=1", "LAS?", "LAS?novalue", "LAS?=v", "LAS?a=1&a=2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, n := range []string{"DFIFO", "LAS", "EP", "RGP+LAS", "RGP"} {
		p, err := New(n)
		if err != nil || p == nil {
			t.Errorf("New(%q): %v", n, err)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := New("bogus")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "LAS") {
		t.Errorf("error should list registered policies, got %v", err)
	}
}

// registerOnce registers ignoring "already registered" — the registry is
// process-global, so repeated in-process test runs (go test -count=2) must
// not trip over their own earlier registrations.
func registerOnce(t *testing.T, name string, f Factory) {
	t.Helper()
	if err := Register(name, f); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestRegistryDuplicateAndInvalidNames(t *testing.T) {
	f := func(Spec) (rt.Policy, error) { return LAS{}, nil }
	registerOnce(t, "dup-test", f)
	if err := Register("dup-test", f); err == nil {
		t.Error("duplicate registration accepted")
	}
	for _, bad := range []string{"", "has space", "has?query", "has=eq", "has&amp"} {
		if err := Register(bad, f); err == nil {
			t.Errorf("Register(%q) accepted", bad)
		}
	}
	if err := Register("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestRegistryCustomRegistration(t *testing.T) {
	registerOnce(t, "custom-reg-test", func(s Spec) (rt.Policy, error) {
		if err := s.Only(); err != nil {
			return nil, err
		}
		return DFIFO{}, nil
	})
	p, err := New("custom-reg-test")
	if err != nil || p.Name() != "DFIFO" {
		t.Fatalf("custom policy: %v, %v", p, err)
	}
	if _, err := New("custom-reg-test?x=1"); err == nil {
		t.Error("unexpected parameter accepted")
	}
	found := false
	for _, n := range Names() {
		if n == "custom-reg-test" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v missing custom registration", Names())
	}
}

func TestRGPSpecParameters(t *testing.T) {
	p, err := New("RGP+LAS?matching=random")
	if err != nil {
		t.Fatal(err)
	}
	rgp, ok := p.(*RGP)
	if !ok || rgp.Propagate != PropagateLAS || rgp.Tune == nil {
		t.Fatalf("RGP+LAS?matching=random built %#v", p)
	}
	if p, err := New("RGP?refine=off"); err != nil {
		t.Fatal(err)
	} else if rgp := p.(*RGP); rgp.Propagate != PropagateRepartition || rgp.Tune == nil {
		t.Fatalf("RGP?refine=off built %#v", p)
	}
	// A plain spec must not install a Tune hook (default options path).
	if p, _ := New("RGP+LAS"); p.(*RGP).Tune != nil {
		t.Error("bare RGP+LAS got a Tune hook")
	}
	for _, bad := range []string{"RGP+LAS?matching=bogus", "RGP+LAS?refine=maybe", "RGP+LAS?window=9", "LAS?matching=random"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

func TestFactoriesReturnFreshStatefulInstances(t *testing.T) {
	a, _ := New("RGP+LAS")
	b, _ := New("RGP+LAS")
	if a.(*RGP) == b.(*RGP) {
		t.Error("RGP factory reused a stateful instance")
	}
}
