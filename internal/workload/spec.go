package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed workload specification: a registered generator name plus
// optional parameters, written "name?key=value&key=value" — the same grammar
// the policy registry uses. Two parameter keys are reserved and handled by
// New for every workload: "scale" overrides the contextual problem scale
// ("jacobi?scale=paper") and "seed" sets the generator seed for stochastic
// builders ("random-layered?seed=7").
type Spec struct {
	Name   string
	Params map[string]string
}

// ParseSpec parses "name" or "name?key=value&key=value". Keys must be
// non-empty and unique; values may be empty.
func ParseSpec(s string) (Spec, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	if name == "" {
		return Spec{}, fmt.Errorf("workload: empty name in spec %q", s)
	}
	spec := Spec{Name: name}
	if !hasQuery {
		return spec, nil
	}
	spec.Params = make(map[string]string)
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("workload: malformed parameter %q in spec %q (want key=value)", kv, s)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("workload: duplicate parameter %q in spec %q", k, s)
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

// Only errors unless every parameter key is among the allowed ones — the
// typo guard ("forkjoin?fanuot=4" fails instead of silently running the
// default). The reserved keys scale and seed are stripped before factories
// see the spec, so they never need to be listed.
func (s Spec) Only(allowed ...string) error {
	for k := range s.Params {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("workload: %s does not take parameter %q (allowed: %s)",
				s.Name, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Int returns the named integer parameter, or def when absent.
func (s Spec) Int(key string, def int) (int, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("workload: %s: %s=%q is not an integer", s.Name, key, v)
	}
	return n, nil
}

// Float returns the named float parameter, or def when absent. NaN and
// infinities are rejected here, once for every generator: range checks such
// as cv < 0 || cv > 1 are false for NaN and would let it through.
func (s Spec) Float(key string, def float64) (float64, error) {
	v, ok := s.Params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: %s: %s=%q is not a number", s.Name, key, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("workload: %s: %s=%q is not a finite number", s.Name, key, v)
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
		return 0, fmt.Errorf("workload: %s: %s=%q is not a size (want bytes with optional K/M/G suffix)", s.Name, key, s.Params[key])
	}
	return n * mult, nil
}
