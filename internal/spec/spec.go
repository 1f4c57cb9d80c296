// Package spec is the one grammar every user-supplied configuration name is
// written in — scheduling policies ("RGP+LAS?matching=random"), workloads
// ("jacobi?nb=32") and cluster dispatchers ("kchoices?d=2") — plus the
// name→factory registry the policy and workload packages resolve names
// through.
//
// A spec is "name" or "name?key=value&key=value": a non-empty name, then
// optional parameters with non-empty, unique keys and possibly empty values.
// String renders it canonically (parameters sorted by key); an experiment
// keys a workload's graph on that form. Every error a spec or registry returns
// starts with its kind ("policy: ...", "workload: ...", "cluster: ..."), the
// prefix its caller chose when parsing or creating the registry.
package spec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Spec is a parsed specification: a name plus optional parameters.
type Spec struct {
	Name   string
	Params map[string]string
	kind   string // error prefix, set by Parse
}

// Parse parses "name" or "name?key=value&key=value". Keys must be non-empty
// and unique; values may be empty. kind prefixes every error about the spec
// ("policy", "workload", "cluster").
func Parse(kind, s string) (Spec, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	if name == "" {
		return Spec{}, fmt.Errorf("%s: empty name in spec %q", kind, s)
	}
	spec := Spec{Name: name, kind: kind}
	if !hasQuery {
		return spec, nil
	}
	spec.Params = make(map[string]string)
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("%s: malformed parameter %q in spec %q (want key=value)", kind, kv, s)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("%s: duplicate parameter %q in spec %q", kind, k, s)
		}
		spec.Params[k] = v
	}
	return spec, nil
}

// String renders the spec canonically: parameters sorted by key.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	return b.String()
}

// Only errors unless every parameter key is among the allowed ones: the
// typo guard ("RGP+LAS?mathcing=random", "forkjoin?fanuot=4" fail instead of
// silently running the default configuration). Of several unknown keys it
// names the first in sorted order, so the error does not depend on map
// iteration.
func (s Spec) Only(allowed ...string) error {
	bad, found := "", false
	for k := range s.Params {
		if !slices.Contains(allowed, k) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	switch {
	case !found:
		return nil
	case len(allowed) == 0:
		return fmt.Errorf("%s: %s takes no parameters, got %q", s.kind, s.Name, bad)
	default:
		return fmt.Errorf("%s: %s does not take parameter %q (allowed: %s)",
			s.kind, s.Name, bad, strings.Join(allowed, ", "))
	}
}

// Int returns the named integer parameter, or def when absent.
func (s Spec) Int(key string, def int) (int, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %s: %s=%q is not an integer", s.kind, s.Name, key, v)
	}
	return n, nil
}

// Float returns the named float parameter, or def when absent. NaN and
// infinities are rejected here, once for every caller: range checks such as
// cv < 0 || cv > 1 are false for NaN and would let it through.
func (s Spec) Float(key string, def float64) (float64, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %s: %s=%q is not a number", s.kind, s.Name, key, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%s: %s: %s=%q is not a finite number", s.kind, s.Name, key, v)
	}
	return f, nil
}

// Str returns the named string parameter, or def when absent.
func (s Spec) Str(key, def string) string {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// Bytes returns the named size parameter, or def when absent. Values are
// plain byte counts with an optional K/M/G suffix (powers of 1024):
// "tile=256K", "chunk=8M".
func (s Spec) Bytes(key string, def int64) (int64, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "K"), strings.HasSuffix(v, "k"):
		mult, v = 1<<10, v[:len(v)-1]
	case strings.HasSuffix(v, "M"), strings.HasSuffix(v, "m"):
		mult, v = 1<<20, v[:len(v)-1]
	case strings.HasSuffix(v, "G"), strings.HasSuffix(v, "g"):
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("%s: %s: %s=%q is not a size (want bytes with optional K/M/G suffix)", s.kind, s.Name, key, s.Params[key])
	}
	return n * mult, nil
}

// Registry maps names to factories of type F, a func type. It is safe for
// concurrent use; registration is typically done from init or before
// experiments start.
type Registry[F any] struct {
	kind    string // error prefix and the noun in "unknown <kind>"
	mu      sync.RWMutex
	entries map[string]entry[F]
}

type entry[F any] struct {
	doc     string
	factory F
}

// NewRegistry returns an empty registry whose errors name kind.
func NewRegistry[F any](kind string) *Registry[F] {
	return &Registry[F]{kind: kind, entries: make(map[string]entry[F])}
}

// Parse parses s as a spec of the registry's kind.
func (r *Registry[F]) Parse(s string) (Spec, error) { return Parse(r.kind, s) }

// Register adds a factory under a name with an optional one-line doc. It
// errors on empty or already-registered names, on names that would not
// survive spec parsing, and on a nil factory.
func (r *Registry[F]) Register(name, doc string, f F) error {
	if name == "" || strings.ContainsAny(name, "?&= \t\n") {
		return fmt.Errorf("%s: invalid registry name %q", r.kind, name)
	}
	if reflect.ValueOf(&f).Elem().IsNil() {
		return fmt.Errorf("%s: nil factory for %q", r.kind, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("%s: %q already registered", r.kind, name)
	}
	r.entries[name] = entry[F]{doc: doc, factory: f}
	return nil
}

// MustRegister is Register, panicking on error (init-time registration).
func (r *Registry[F]) MustRegister(name, doc string, f F) {
	if err := r.Register(name, doc, f); err != nil {
		panic(err)
	}
}

// Lookup returns the factory registered under name; an unknown name's error
// lists the registered ones.
func (r *Registry[F]) Lookup(name string) (F, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return e.factory, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			r.kind, r.kind, name, strings.Join(r.Names(), ", "))
	}
	return e.factory, nil
}

// Names returns the registered names, sorted.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ns := make([]string, 0, len(r.entries))
	for n := range r.entries {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Doc returns the one-line documentation registered with name.
func (r *Registry[F]) Doc(name string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return "", fmt.Errorf("%s: unknown %s %q", r.kind, r.kind, name)
	}
	return e.doc, nil
}
