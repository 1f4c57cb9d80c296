package policy

import (
	"fmt"

	"numadag/internal/partition"
	"numadag/internal/rt"
	"numadag/internal/spec"
)

// Spec is a parsed policy specification: a registered policy name plus
// optional parameters, written "name?key=value&key=value". Parameters let
// one registration cover a family of configurations — e.g. the partitioner
// ablations "RGP+LAS?matching=random" and "RGP+LAS?refine=off" — without a
// bespoke constructor per variant. Factories reject unknown keys with
// Spec.Only.
type Spec = spec.Spec

// Factory builds a policy instance from a parsed spec. A factory must
// return a fresh instance on every call: stateful policies (the RGP family)
// are instantiated once per run.
type Factory func(Spec) (rt.Policy, error)

var registry = spec.NewRegistry[Factory]("policy")

// ParseSpec parses "name" or "name?key=value&key=value" (see package spec).
func ParseSpec(s string) (Spec, error) { return registry.Parse(s) }

// Register adds a policy factory under a name. It errors on empty or
// already-registered names and on names that would not survive spec
// parsing. Registration is typically done from init or before experiments
// start; it is safe for concurrent use.
func Register(name string, f Factory) error { return registry.Register(name, "", f) }

// MustRegister is Register, panicking on error (init-time registration).
func MustRegister(name string, f Factory) { registry.MustRegister(name, "", f) }

// New instantiates a policy from a spec string, e.g. "LAS" or
// "RGP+LAS?matching=random". Unknown names list the registered policies.
func New(spec string) (rt.Policy, error) {
	s, err := registry.Parse(spec)
	if err != nil {
		return nil, err
	}
	f, err := registry.Lookup(s.Name)
	if err != nil {
		return nil, err
	}
	return f(s)
}

// Names returns the registered policy names, sorted.
func Names() []string { return registry.Names() }

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
