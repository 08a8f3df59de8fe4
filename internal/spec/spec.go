// Package spec defines the canonical, versioned description of a
// simulation run: one declarative RunSpec — machine, policy with
// parameters, workload, measurement protocol, metrics flags — that
// every frontend speaks. The CLI's -spec files, the service's /v2 API,
// and the experiment runner all translate into RunSpecs, so a run has
// exactly one identity: Resolve validates it, canonicalizes it
// (defaults applied, machine fully resolved, policy parameters
// completed), compiles it to sim.Options, and fingerprints it with the
// same content-addressed key every cache in the system is keyed by. SweepSpec is the grid form: list-valued axes that expand
// deterministically into the cartesian product of RunSpecs.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/sim"
	"dwarn/internal/timeline"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// Version is the current spec schema version. Specs may omit the field
// (meaning "current"); canonical forms always carry it, so persisted
// specs self-describe the schema they were written against.
const Version = 1

// maxNameLen bounds every request-supplied name so hostile specs cannot
// bloat job records or cache keys.
const maxNameLen = 128

// maxBenchmarks bounds a custom workload's benchmark list before the
// machine's hardware-context check applies.
const maxBenchmarks = 64

// Machine selects the processor configuration: a named machine
// ("baseline", "small", "deep"), optionally patched field-by-field by
// Overrides, or a complete inline Config. A nil Machine is the baseline.
type Machine struct {
	// Name is a config.Machines() name; empty means "baseline" (or
	// labels Config when that is set).
	Name string `json:"name,omitempty"`
	// Overrides patches the named base configuration before validation:
	// a JSON object holding any subset of config.Processor's fields
	// (e.g. {"MemLatency": 200}). Mutually exclusive with Config.
	Overrides json.RawMessage `json:"overrides,omitempty"`
	// Config is a complete inline machine description. Canonical specs
	// always carry the fully resolved Config so they are self-contained.
	Config *config.Processor `json:"config,omitempty"`
}

// resolve produces the validated processor configuration.
func (m *Machine) resolve() (*config.Processor, error) {
	if m == nil {
		return config.Baseline(), nil
	}
	if m.Config != nil {
		if len(m.Overrides) > 0 {
			return nil, fmt.Errorf("spec: machine sets both config and overrides")
		}
		cfg := m.Config.Clone()
		if cfg.Name == "" {
			cfg.Name = "custom"
		}
		if m.Name != "" && m.Name != cfg.Name {
			return nil, fmt.Errorf("spec: machine name %q does not match inline config name %q", m.Name, cfg.Name)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return cfg, nil
	}
	if len(m.Name) > maxNameLen {
		return nil, fmt.Errorf("spec: machine name too long")
	}
	cfg, err := config.ByName(m.Name)
	if err != nil {
		return nil, err
	}
	if len(m.Overrides) > 0 {
		dec := json.NewDecoder(bytes.NewReader(m.Overrides))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			return nil, fmt.Errorf("spec: machine overrides: %w", err)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// Policy references a fetch policy by registry name plus parameter
// values; absent parameters take their paper defaults. Unknown names,
// unknown parameters, and out-of-range values are validation errors.
type Policy struct {
	Name   string           `json:"name"`
	Params map[string]int64 `json:"params,omitempty"`
}

// ID renders the policy's canonical compact identity ("dwarn",
// "dwarn(warn=2)"): the display form caches and tables key rows by.
func (p Policy) ID() string { return core.PolicyID(p.Name, p.Params) }

// Workload selects what the threads execute. Exactly one of the four
// fields must be set.
type Workload struct {
	// Name is a Table 2(b) workload ("4-MIX").
	Name string `json:"name,omitempty"`
	// Solo runs one benchmark alone (the relative-IPC baseline shape).
	Solo string `json:"solo,omitempty"`
	// Benchmarks builds a custom workload from benchmark names.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Trace replays a recorded uop trace instead of running synthetic
	// generators. The reference is resolver-scoped: a store id for the
	// service, a file path for the CLI. Canonical forms carry the
	// trace's full content digest.
	Trace string `json:"trace,omitempty"`
}

// Validate performs the static checks that need no resolver.
func (w *Workload) Validate() error {
	set := 0
	for _, ok := range []bool{w.Name != "", w.Solo != "", len(w.Benchmarks) > 0, w.Trace != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("spec: workload must set exactly one of name, solo, benchmarks, trace")
	}
	if len(w.Name) > maxNameLen || len(w.Solo) > maxNameLen || len(w.Trace) > maxNameLen {
		return fmt.Errorf("spec: workload name too long")
	}
	switch {
	case w.Name != "":
		if _, err := workload.GetWorkload(w.Name); err != nil {
			return err
		}
	case w.Solo != "":
		if _, err := workload.Get(w.Solo); err != nil {
			return err
		}
	case len(w.Benchmarks) > 0:
		if len(w.Benchmarks) > maxBenchmarks {
			return fmt.Errorf("spec: %d benchmarks exceed the limit of %d", len(w.Benchmarks), maxBenchmarks)
		}
		for _, b := range w.Benchmarks {
			if len(b) > maxNameLen {
				return fmt.Errorf("spec: benchmark name too long")
			}
			if _, err := workload.Get(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolve produces the synthetic workload or the loaded trace.
func (w *Workload) resolve(r TraceResolver) (workload.Workload, *trace.Trace, error) {
	switch {
	case w.Trace != "":
		if r == nil {
			return workload.Workload{}, nil, fmt.Errorf("spec: no trace resolver available for trace %q", w.Trace)
		}
		tr, err := r.ResolveTrace(w.Trace)
		if err != nil {
			return workload.Workload{}, nil, err
		}
		return workload.Workload{}, tr, nil
	case w.Name != "":
		wl, err := workload.GetWorkload(w.Name)
		return wl, nil, err
	case w.Solo != "":
		return sim.SoloWorkload(w.Solo), nil, nil
	default:
		// The name encodes the content so the fingerprint of a custom
		// workload is stable across requests and frontends.
		wl, err := workload.Custom("custom:"+strings.Join(w.Benchmarks, "+"), w.Benchmarks)
		return wl, nil, err
	}
}

// TraceResolver resolves a Workload.Trace reference to a loaded trace.
// The service resolves store ids (content digests or prefixes); CLIs
// resolve file paths. Specs that do not reference traces never need one.
type TraceResolver interface {
	ResolveTrace(ref string) (*trace.Trace, error)
}

// FileTraces resolves trace references as filesystem paths — the CLI's
// resolver. The zero value is ready to use.
type FileTraces struct{}

// ResolveTrace implements TraceResolver.
func (FileTraces) ResolveTrace(ref string) (*trace.Trace, error) { return trace.ReadFile(ref) }

// RunSpec is the canonical description of one simulation. The zero
// values of the protocol fields mean "paper defaults", so the minimal
// legal spec is a policy plus a workload.
type RunSpec struct {
	// Version is the spec schema version; 0 means current.
	Version int `json:"version,omitempty"`
	// Machine is the processor configuration; nil means baseline.
	Machine *Machine `json:"machine,omitempty"`
	// Policy is the fetch policy reference.
	Policy Policy `json:"policy"`
	// Workload is what the threads execute.
	Workload Workload `json:"workload"`
	// Seed drives all synthetic randomness (0 = the default seed).
	// Replay runs ignore it: recorded streams carry their own history.
	Seed uint64 `json:"seed,omitempty"`
	// WarmupCycles and MeasureCycles control the measurement protocol
	// (0 = the sim package defaults).
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// Baselines additionally runs each benchmark solo under ICOUNT and
	// reports relative-IPC metrics. A metrics flag, not a different
	// simulation: it does not change the fingerprint.
	Baselines bool `json:"baselines,omitempty"`
	// Timeline requests per-interval timeline sampling during the
	// measured window. Like Baselines it is a metrics option, not a
	// different simulation: sampling is observation only and never
	// changes the fingerprint, so a timeline run and its plain twin
	// share one cache identity (a cached result may therefore lack
	// frames).
	Timeline *TimelineSpec `json:"timeline,omitempty"`
}

// TimelineSpec is the spec form of timeline.Config: the sampling
// interval and frame-ring bound, both defaulted when zero. Presence of
// the object enables sampling.
type TimelineSpec struct {
	// IntervalCycles is the sampling period (0 = 10k cycles).
	IntervalCycles int64 `json:"interval_cycles,omitempty"`
	// MaxFrames bounds retained frames; the oldest are dropped beyond
	// it (0 = 1024).
	MaxFrames int `json:"max_frames,omitempty"`
}

// Validate performs every check that needs no trace resolver: schema
// version, machine resolution, policy name and parameter ranges,
// workload shape and registry membership, protocol sanity, and the
// workload-fits-machine constraint.
func (s *RunSpec) Validate() error {
	_, err := s.resolve(nil, true)
	return err
}

// Resolved is a fully compiled RunSpec: its canonical form, the
// sim.Options ready to run, and the content-addressed fingerprint that
// identifies the run everywhere (exp memoiser, dwarnd result cache,
// CLI result stores alike).
type Resolved struct {
	// Spec is the canonical form: version stamped, machine carrying the
	// fully resolved config, policy parameters completed with defaults,
	// trace references expanded to content digests, protocol defaults
	// applied. Canonicalization is idempotent, and two specs describing
	// the same simulation canonicalize to the same form.
	Spec RunSpec
	// Options runs the simulation this spec describes.
	Options sim.Options
	// Fingerprint is hex SHA-256 over everything that determines the
	// run's outcome. Baselines is deliberately excluded: it selects
	// extra metrics over the same simulation.
	Fingerprint string
	// CheckpointKey is the identity of the run's calibrated program
	// cores: its workload and seed (sim.CheckpointKey). Cells of a sweep
	// sharing a key can fork one calibration. Empty for trace replays.
	CheckpointKey string
}

// Resolve validates, canonicalizes, compiles, and fingerprints the
// spec. r may be nil for specs that do not reference traces.
func (s *RunSpec) Resolve(r TraceResolver) (*Resolved, error) {
	return s.resolve(r, false)
}

// resolve is the one pass behind Validate and Resolve: every check runs
// exactly once, and static mode stops before the work that needs a
// trace resolver (returning a nil Resolved).
func (s *RunSpec) resolve(r TraceResolver, static bool) (*Resolved, error) {
	if s.Version != 0 && s.Version != Version {
		return nil, fmt.Errorf("spec: unsupported spec version %d (current: %d)", s.Version, Version)
	}
	cfg, err := s.Machine.resolve()
	if err != nil {
		return nil, err
	}
	if s.Policy.Name == "" {
		return nil, fmt.Errorf("spec: run needs a policy (known: %v)", core.Policies())
	}
	if len(s.Policy.Name) > maxNameLen {
		return nil, fmt.Errorf("spec: policy name too long")
	}
	params, err := core.CanonicalParams(s.Policy.Name, s.Policy.Params)
	if err != nil {
		return nil, err
	}
	if err := s.Workload.Validate(); err != nil {
		return nil, err
	}
	if s.WarmupCycles < 0 || s.MeasureCycles < 0 {
		return nil, fmt.Errorf("spec: cycle counts must be non-negative")
	}
	if s.Timeline != nil && (s.Timeline.IntervalCycles < 0 || s.Timeline.MaxFrames < 0) {
		return nil, fmt.Errorf("spec: timeline interval and max_frames must be non-negative")
	}
	if s.Baselines && s.Workload.Trace != "" {
		// Relative-IPC baselines re-run each benchmark solo through the
		// synthetic generators, which a trace run replaces.
		return nil, fmt.Errorf("spec: baselines are not supported for trace runs")
	}
	if static && s.Workload.Trace != "" {
		// Trace existence and shape are only checkable with a resolver.
		return nil, nil
	}

	wl, tr, err := s.Workload.resolve(r)
	if err != nil {
		return nil, err
	}
	if tr == nil && wl.Threads > cfg.HardwareContexts {
		return nil, fmt.Errorf("spec: workload %s needs %d contexts but the %s machine has %d",
			wl.Name, wl.Threads, cfg.Name, cfg.HardwareContexts)
	}
	if static {
		return nil, nil
	}

	seed := s.Seed
	if seed == 0 {
		seed = sim.DefaultSeed
	}
	warmup := s.WarmupCycles
	if warmup == 0 {
		warmup = sim.DefaultWarmupCycles
	}
	measure := s.MeasureCycles
	if measure == 0 {
		measure = sim.DefaultMeasureCycles
	}

	canonical := RunSpec{
		Version:       Version,
		Machine:       &Machine{Name: cfg.Name, Config: cfg},
		Policy:        Policy{Name: s.Policy.Name, Params: params},
		Seed:          seed,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Baselines:     s.Baselines,
	}
	opts := sim.Options{
		Config:        cfg,
		Policy:        s.Policy.Name,
		PolicyParams:  params,
		Seed:          seed,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
	}
	if s.Timeline != nil {
		// Canonical forms carry the defaulted values so equal requests
		// canonicalize identically; the fingerprint ignores Timeline
		// entirely (sim.Fingerprint hashes only outcome-determining
		// fields).
		tc := timeline.Config{IntervalCycles: s.Timeline.IntervalCycles, MaxFrames: s.Timeline.MaxFrames}.WithDefaults()
		canonical.Timeline = &TimelineSpec{IntervalCycles: tc.IntervalCycles, MaxFrames: tc.MaxFrames}
		opts.Timeline = &tc
	}
	if tr != nil {
		if len(tr.Threads) > cfg.HardwareContexts {
			return nil, fmt.Errorf("spec: trace has %d threads but the %s machine has %d hardware contexts",
				len(tr.Threads), cfg.Name, cfg.HardwareContexts)
		}
		// Replay consumes recorded streams, never the seed; canonical
		// trace specs drop it so equal replays share one identity.
		canonical.Seed = 0
		canonical.Workload = Workload{Trace: tr.Digest}
		opts.Trace = tr
		opts.Seed = 0
	} else {
		switch {
		case s.Workload.Name != "":
			canonical.Workload = Workload{Name: wl.Name}
		case s.Workload.Solo != "":
			canonical.Workload = Workload{Solo: s.Workload.Solo}
		default:
			canonical.Workload = Workload{Benchmarks: append([]string(nil), s.Workload.Benchmarks...)}
		}
		opts.Workload = wl
	}

	return &Resolved{
		Spec:          canonical,
		Options:       opts,
		Fingerprint:   sim.Fingerprint(opts),
		CheckpointKey: sim.CheckpointKey(opts),
	}, nil
}

// Canonicalize returns the canonical form of the spec; see Resolved.Spec.
func (s *RunSpec) Canonicalize(r TraceResolver) (*RunSpec, error) {
	res, err := s.Resolve(r)
	if err != nil {
		return nil, err
	}
	return &res.Spec, nil
}

// Fingerprint returns the content-addressed identity of the run; see
// Resolved.Fingerprint.
func (s *RunSpec) Fingerprint(r TraceResolver) (string, error) {
	res, err := s.Resolve(r)
	if err != nil {
		return "", err
	}
	return res.Fingerprint, nil
}

// SoloBaseline derives the canonical solo-ICOUNT baseline spec for one
// benchmark of a run: the same machine, seed, and protocol, one thread
// under ICOUNT — the denominator of every relative-IPC metric. The
// executor (internal/exec) derives every baseline through this one
// function for all frontends, so a given benchmark's baseline resolves
// to the same fingerprint and therefore the same cache entry wherever
// it is needed.
func SoloBaseline(s RunSpec, bench string) RunSpec {
	return RunSpec{
		Machine:       s.Machine,
		Policy:        Policy{Name: "icount"},
		Workload:      Workload{Solo: bench},
		Seed:          s.Seed,
		WarmupCycles:  s.WarmupCycles,
		MeasureCycles: s.MeasureCycles,
	}
}

// WorkloadID renders the workload's display identity: the workload
// name, "solo-<bench>", "custom:<a>+<b>", or "trace:<ref>".
func (w Workload) ID() string {
	switch {
	case w.Trace != "":
		return "trace:" + w.Trace
	case w.Solo != "":
		return "solo-" + w.Solo
	case w.Name != "":
		return w.Name
	default:
		return "custom:" + strings.Join(w.Benchmarks, "+")
	}
}
