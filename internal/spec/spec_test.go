package spec

import (
	"reflect"
	"strings"
	"testing"
)

// TestParse is the grammar's table: every case of the policy and workload
// parsers it replaced, with the canonical rendering of each accepted spec
// and the exact error of each rejected one.
func TestParse(t *testing.T) {
	for _, c := range []struct {
		in     string
		name   string
		params map[string]string
		canon  string // String() of the parsed spec
		err    string // exact error; empty when the spec parses
	}{
		{in: "RGP+LAS?matching=random&refine=off", name: "RGP+LAS",
			params: map[string]string{"matching": "random", "refine": "off"},
			canon:  "RGP+LAS?matching=random&refine=off"},
		{in: "LAS", name: "LAS", canon: "LAS"},
		{in: "random-layered?width=96&layers=24&cv=0.4", name: "random-layered",
			params: map[string]string{"width": "96", "layers": "24", "cv": "0.4"},
			canon:  "random-layered?cv=0.4&layers=24&width=96"},
		{in: "jacobi", name: "jacobi", canon: "jacobi"},
		{in: "a?x=", name: "a", params: map[string]string{"x": ""}, canon: "a?x="},
		{in: "a?x==?", name: "a", params: map[string]string{"x": "=?"}, canon: "a?x==?"},
		{in: "a&b=c?k?=v", name: "a&b=c", params: map[string]string{"k?": "v"}, canon: "a&b=c?k?=v"},
		{in: "", err: `k: empty name in spec ""`},
		{in: "?x=1", err: `k: empty name in spec "?x=1"`},
		{in: "LAS?", err: `k: malformed parameter "" in spec "LAS?" (want key=value)`},
		{in: "LAS?novalue", err: `k: malformed parameter "novalue" in spec "LAS?novalue" (want key=value)`},
		{in: "LAS?=v", err: `k: malformed parameter "=v" in spec "LAS?=v" (want key=value)`},
		{in: "LAS?a=1&a=2", err: `k: duplicate parameter "a" in spec "LAS?a=1&a=2"`},
		{in: "a?=1", err: `k: malformed parameter "=1" in spec "a?=1" (want key=value)`},
		{in: "a?x", err: `k: malformed parameter "x" in spec "a?x" (want key=value)`},
		{in: "a?x=1&x=2", err: `k: duplicate parameter "x" in spec "a?x=1&x=2"`},
		{in: "a?x=1&", err: `k: malformed parameter "" in spec "a?x=1&" (want key=value)`},
	} {
		s, err := Parse("k", c.in)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q) error = %v, want %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if s.Name != c.name || !reflect.DeepEqual(s.Params, c.params) {
			t.Errorf("Parse(%q) = %q %v, want %q %v", c.in, s.Name, s.Params, c.name, c.params)
		}
		if got := s.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.canon)
		}
	}
}

// TestStringRoundTrip pins that a parsed spec's canonical String parses
// back to an equal spec: the experiment's graphs and the result tables key on
// that string, so two spellings of one spec must meet there.
func TestStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"LAS",
		"RGP+LAS?refine=off&matching=random",
		"random-layered?width=96&layers=24&cv=0.4&seed=7",
		"file?path=testdata/dags/diamond.json",
		"a?x=",
		"a?x==?&y=",
		"a&b=c?k?=v",
		"kchoices?d=+2",
	} {
		s, err := Parse("k", in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse("k", s.String())
		if err != nil {
			t.Fatalf("Parse(%q) of %q's String: %v", s.String(), in, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%q: String %q parses back to %+v, want %+v", in, s.String(), back, s)
		}
		if back.String() != s.String() {
			t.Errorf("%q: String not a fixed point: %q then %q", in, s.String(), back.String())
		}
	}
}

func TestGettersNameTheirKind(t *testing.T) {
	s, err := Parse("cluster", "kchoices?d=x&f=NaN&b=1Q&n=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{s.Only("d"), `cluster: kchoices does not take parameter `},
		{func() error { _, err := s.Int("d", 0); return err }(), `cluster: kchoices: d="x" is not an integer`},
		{func() error { _, err := s.Float("f", 0); return err }(), `cluster: kchoices: f="NaN" is not a finite number`},
		{func() error { _, err := s.Float("d", 0); return err }(), `cluster: kchoices: d="x" is not a number`},
		{func() error { _, err := s.Bytes("b", 0); return err }(), `cluster: kchoices: b="1Q" is not a size (want bytes with optional K/M/G suffix)`},
	} {
		if c.err == nil || !strings.HasPrefix(c.err.Error(), c.want) {
			t.Errorf("error %v, want prefix %q", c.err, c.want)
		}
	}
	if n, err := s.Int("n", 0); err != nil || n != 3 {
		t.Errorf("Int(n) = %d, %v", n, err)
	}
}

type factory func() int

// TestOnlyWording pins the typo guard's two errors: an entry without
// parameters says so instead of listing none, and of several unknown keys
// the first in sorted order is named, whatever the map's iteration order.
func TestOnlyWording(t *testing.T) {
	for _, c := range []struct {
		kind, in string
		allowed  []string
		want     string
	}{
		{"policy", "LAS?matching=random", nil, `policy: LAS takes no parameters, got "matching"`},
		{"cluster", "idle?x=1", nil, `cluster: idle takes no parameters, got "x"`},
		{"cluster", "idle?z=1&y=2&x=3", nil, `cluster: idle takes no parameters, got "x"`},
		{"cluster", "kchoices?k=2", []string{"d"}, `cluster: kchoices does not take parameter "k" (allowed: d)`},
		{"workload", "forkjoin?zz=1&fanout=2&aa=3", []string{"depth", "fanout"},
			`workload: forkjoin does not take parameter "aa" (allowed: depth, fanout)`},
	} {
		s, err := Parse(c.kind, c.in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ { // map order varies between iterations
			if err := s.Only(c.allowed...); err == nil || err.Error() != c.want {
				t.Fatalf("%s: Only(%v) = %v, want %q", c.in, c.allowed, err, c.want)
			}
		}
	}
	s, err := Parse("policy", "RGP+LAS?refine=off")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Only("matching", "refine"); err != nil {
		t.Fatalf("Only rejects an allowed key: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry[factory]("thing")
	one := factory(func() int { return 1 })
	if err := r.Register("b", "the b", one); err != nil {
		t.Fatal(err)
	}
	r.MustRegister("a", "", func() int { return 2 })
	for _, c := range []struct {
		name string
		f    factory
		want string
	}{
		{"", one, `thing: invalid registry name ""`},
		{"has space", one, `thing: invalid registry name "has space"`},
		{"has?query", one, `thing: invalid registry name "has?query"`},
		{"has=eq", one, `thing: invalid registry name "has=eq"`},
		{"has&amp", one, `thing: invalid registry name "has&amp"`},
		{"tab\t", one, `thing: invalid registry name "tab\t"`},
		{"", nil, `thing: invalid registry name ""`},
		{"nil-factory", nil, `thing: nil factory for "nil-factory"`},
		{"b", nil, `thing: nil factory for "b"`},
		{"b", one, `thing: "b" already registered`},
	} {
		if err := r.Register(c.name, "", c.f); err == nil || err.Error() != c.want {
			t.Errorf("Register(%q) = %v, want %q", c.name, err, c.want)
		}
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names() = %v", got)
	}
	if f, err := r.Lookup("a"); err != nil || f() != 2 {
		t.Errorf("Lookup(a): %v", err)
	}
	if _, err := r.Lookup("c"); err == nil || err.Error() != `thing: unknown thing "c" (registered: a, b)` {
		t.Errorf("Lookup(c) = %v", err)
	}
	if doc, err := r.Doc("b"); err != nil || doc != "the b" {
		t.Errorf("Doc(b) = %q, %v", doc, err)
	}
	if _, err := r.Doc("c"); err == nil || err.Error() != `thing: unknown thing "c"` {
		t.Errorf("Doc(c) = %v", err)
	}
	if s, err := r.Parse("a?"); err == nil || err.Error() != `thing: malformed parameter "" in spec "a?" (want key=value)` {
		t.Errorf("Parse(a?) = %+v, %v", s, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister of a duplicate did not panic")
		}
	}()
	r.MustRegister("a", "", one)
}
