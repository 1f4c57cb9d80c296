package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"numadag/internal/partition"
	"numadag/internal/rt"
)

// Spec is a parsed policy specification: a registered policy name plus
// optional parameters, written "name?key=value&key=value". Parameters let
// one registration cover a family of configurations — e.g. the partitioner
// ablations "RGP+LAS?matching=random" and "RGP+LAS?refine=off" — without a
// bespoke constructor per variant.
type Spec struct {
	Name   string
	Params map[string]string
}

// ParseSpec parses "name" or "name?key=value&key=value". Keys must be
// non-empty and unique; values may be empty.
func ParseSpec(s string) (Spec, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	if name == "" {
		return Spec{}, fmt.Errorf("policy: empty name in spec %q", s)
	}
	spec := Spec{Name: name}
	if !hasQuery {
		return spec, nil
	}
	spec.Params = make(map[string]string)
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("policy: malformed parameter %q in spec %q (want key=value)", kv, s)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("policy: duplicate parameter %q in spec %q", k, s)
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

// Only errors unless every parameter key is among the allowed ones; it is
// how factories reject typos ("RGP+LAS?mathcing=random") instead of
// silently running the default configuration.
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
			return fmt.Errorf("policy: %s does not take parameter %q (allowed: %s)",
				s.Name, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Factory builds a policy instance from a parsed spec. A factory must
// return a fresh instance on every call: stateful policies (the RGP family)
// are instantiated once per run.
type Factory func(Spec) (rt.Policy, error)

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register adds a policy factory under a name. It errors on empty or
// already-registered names and on names that would not survive spec
// parsing. Registration is typically done from init or before experiments
// start; it is safe for concurrent use.
func Register(name string, f Factory) error {
	if name == "" || strings.ContainsAny(name, "?&= \t\n") {
		return fmt.Errorf("policy: invalid registry name %q", name)
	}
	if f == nil {
		return fmt.Errorf("policy: nil factory for %q", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		return fmt.Errorf("policy: %q already registered", name)
	}
	registry.factories[name] = f
	return nil
}

// MustRegister is Register, panicking on error (init-time registration).
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// New instantiates a policy from a spec string, e.g. "LAS" or
// "RGP+LAS?matching=random". Unknown names list the registered policies.
func New(spec string) (rt.Policy, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	registry.RLock()
	f, ok := registry.factories[s.Name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
			s.Name, strings.Join(Names(), ", "))
	}
	return f(s)
}

// Names returns the registered policy names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	ns := make([]string, 0, len(registry.factories))
	for n := range registry.factories {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// paramless wraps a stateless policy value as a factory that rejects
// parameters.
func paramless(p rt.Policy) Factory {
	return func(s Spec) (rt.Policy, error) {
		if err := s.Only(); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// rgpFactory covers the RGP family: the propagation mode is fixed by the
// registered name, the partitioner ablations are parameters.
func rgpFactory(prop Propagation) Factory {
	return func(s Spec) (rt.Policy, error) {
		if err := s.Only("matching", "refine"); err != nil {
			return nil, err
		}
		p := &RGP{Propagate: prop}
		var tweaks []func(*partition.Options)
		if v, ok := s.Params["matching"]; ok {
			switch v {
			case "heavy":
				tweaks = append(tweaks, func(o *partition.Options) { o.Matching = partition.HeavyEdgeMatching })
			case "random":
				tweaks = append(tweaks, func(o *partition.Options) { o.Matching = partition.RandomMatching })
			default:
				return nil, fmt.Errorf("policy: %s: matching=%q (want heavy or random)", s.Name, v)
			}
		}
		if v, ok := s.Params["refine"]; ok {
			switch v {
			case "on":
				tweaks = append(tweaks, func(o *partition.Options) { o.NoRefine = false })
			case "off":
				tweaks = append(tweaks, func(o *partition.Options) { o.NoRefine = true })
			default:
				return nil, fmt.Errorf("policy: %s: refine=%q (want on or off)", s.Name, v)
			}
		}
		if len(tweaks) > 0 {
			p.Tune = func(o *partition.Options) {
				for _, t := range tweaks {
					t(o)
				}
			}
		}
		return p, nil
	}
}

func init() {
	MustRegister("DFIFO", paramless(DFIFO{}))
	MustRegister("LAS", paramless(LAS{}))
	MustRegister("EP", paramless(EP{}))
	MustRegister("RGP+LAS", rgpFactory(PropagateLAS))
	MustRegister("RGP", rgpFactory(PropagateRepartition))
}
