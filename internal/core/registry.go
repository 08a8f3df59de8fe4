package core

import (
	"fmt"
	"sort"
	"strings"
)

// ParamSpec declares one tunable policy parameter: its identity, its
// paper-default value, and the range a request may set it to. The specs
// are data, not code — the service and the spec package introspect them
// to validate {name, params} policy references before anything runs.
type ParamSpec struct {
	// Name is the parameter key ("threshold", "n", "warn").
	Name string `json:"name"`
	// Default is the paper's value, applied when the parameter is absent.
	Default int64 `json:"default"`
	// Min and Max bound accepted values (inclusive).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Doc is a one-line description for catalog endpoints.
	Doc string `json:"doc"`
}

// entry is one registered policy: its display name, whether the shared
// response keeps one thread running, a detector constructor, and the
// declaration of the parameters it accepts. detect is called with a
// full parameter map (every declared parameter present, defaults
// applied).
type entry struct {
	name    string
	keepOne bool
	detect  func(params map[string]int64) detector
	params  []ParamSpec
}

// The paper's defaults: STALL and FLUSH declare a load an L2 miss after
// 15 cycles in the hierarchy, DG and PDG gate on the first outstanding
// miss (n = 0), and DWarn demotes on the first in-flight miss.
var (
	thresholdParam = []ParamSpec{{
		Name: "threshold", Default: 15, Min: 1, Max: 10_000,
		Doc: "cycles in the hierarchy before a load is declared an L2 miss",
	}}
	warnParam = []ParamSpec{{
		Name: "warn", Default: 1, Min: 1, Max: 64,
		Doc: "in-flight L1 data misses at which a thread drops to the Dmiss group",
	}}
)

var registry = map[string]entry{
	"icount": {
		name:   "ICOUNT",
		detect: func(map[string]int64) detector { return icount{} },
	},
	"stall": {
		name: "STALL", keepOne: true, params: thresholdParam,
		detect: func(p map[string]int64) detector { return &threshold{threshold: p["threshold"]} },
	},
	"flush": {
		name: "FLUSH", keepOne: true, params: thresholdParam,
		detect: func(p map[string]int64) detector { return &threshold{threshold: p["threshold"], flush: true} },
	},
	"dg": {
		name:   "DG",
		detect: func(p map[string]int64) detector { return &dg{n: int(p["n"])} },
		params: []ParamSpec{{
			Name: "n", Default: 0, Min: 0, Max: 64,
			Doc: "outstanding L1 data misses a thread may have before it is gated",
		}},
	},
	"pdg": {
		name:   "PDG",
		detect: func(p map[string]int64) detector { return &pdg{n: int(p["n"])} },
		params: []ParamSpec{{
			Name: "n", Default: 0, Min: 0, Max: 64,
			Doc: "predicted outstanding misses a thread may have before it is gated",
		}},
	},
	"dwarn": {
		name: "DWarn", keepOne: true, params: warnParam,
		detect: func(p map[string]int64) detector { return &dwarn{hybrid: true, warn: int(p["warn"])} },
	},
	"dwarn-prio": {
		name: "DWarn-Prio", keepOne: true, params: warnParam,
		detect: func(p map[string]int64) detector { return &dwarn{warn: int(p["warn"])} },
	},
}

// PaperPolicies lists the six policies of the paper's evaluation, in
// the figures' order.
func PaperPolicies() []string {
	return []string{"icount", "stall", "flush", "dg", "pdg", "dwarn"}
}

// Policies returns all registered policy names, sorted.
func Policies() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyParams returns the declared parameters of a policy, in
// declaration order. The returned slice is a copy.
func PolicyParams(name string) ([]ParamSpec, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", name, Policies())
	}
	return append([]ParamSpec(nil), e.params...), nil
}

// CanonicalParams validates a {name, params} policy reference and
// returns the full parameter map: every declared parameter present,
// defaults applied, so two references that build the same policy
// canonicalize to the same map. Unknown parameters and out-of-range
// values are errors; a nil map selects all defaults.
func CanonicalParams(name string, params map[string]int64) (map[string]int64, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", name, Policies())
	}
	for k := range params {
		found := false
		for _, ps := range e.params {
			if ps.Name == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: policy %q has no parameter %q (declared: %v)", name, k, paramNames(e.params))
		}
	}
	if len(e.params) == 0 {
		return nil, nil
	}
	full := make(map[string]int64, len(e.params))
	for _, ps := range e.params {
		v, set := params[ps.Name]
		if !set {
			v = ps.Default
		}
		if v < ps.Min || v > ps.Max {
			return nil, fmt.Errorf("core: policy %q parameter %q = %d out of range [%d, %d]", name, ps.Name, v, ps.Min, ps.Max)
		}
		full[ps.Name] = v
	}
	return full, nil
}

func paramNames(specs []ParamSpec) []string {
	out := make([]string, len(specs))
	for i, ps := range specs {
		out[i] = ps.Name
	}
	return out
}

// PolicyID renders the canonical compact identity of a {name, params}
// reference: the bare name when every parameter has its default value,
// otherwise "name(k=v,...)" with keys sorted — so a threshold sweep
// never collides with the base policy, while an explicit default is
// identical to an omitted one. Unregistered names render their given
// parameters verbatim (callers that care validate first).
func PolicyID(name string, params map[string]int64) string {
	var nonDefault map[string]int64
	if e, ok := registry[name]; ok {
		nonDefault = make(map[string]int64)
		for _, ps := range e.params {
			if v, set := params[ps.Name]; set && v != ps.Default {
				nonDefault[ps.Name] = v
			}
		}
	} else {
		nonDefault = params
	}
	if len(nonDefault) == 0 {
		return name
	}
	keys := make([]string, 0, len(nonDefault))
	for k := range nonDefault {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, nonDefault[k])
	}
	b.WriteByte(')')
	return b.String()
}

// NewPolicyParams constructs a policy from a {name, params} reference,
// validating the parameters against the registry's declarations and
// applying defaults for the ones not given.
func NewPolicyParams(name string, params map[string]int64) (*Policy, error) {
	full, err := CanonicalParams(name, params)
	if err != nil {
		return nil, err
	}
	e := registry[name]
	return &Policy{detector: e.detect(full), name: e.name, keepOne: e.keepOne}, nil
}

// NewPolicy constructs a policy by registry name with every parameter
// at its paper default.
func NewPolicy(name string) (*Policy, error) {
	return NewPolicyParams(name, nil)
}

// MustNewPolicy is NewPolicy for static names; it panics on unknown
// policies.
func MustNewPolicy(name string) *Policy {
	p, err := NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}
