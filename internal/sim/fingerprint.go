package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/workload"
)

// Fingerprint returns a content-addressed identity for a simulation: a
// hex SHA-256 over every input that determines its outcome — the full
// machine configuration, the policy identity, the workload (including
// the calibrated profile of every benchmark, so re-registering a
// benchmark changes the key), the seed, and the run lengths, all with
// defaults applied. Two Options with equal fingerprints produce
// byte-identical Results, which is what lets the exp memoiser and the
// dwarnd result cache share one cache identity.
//
// For trace-driven runs (opts.Trace set) the workload component is the
// trace's content digest and thread count: two runs over byte-identical
// traces share a key, and any re-recorded or edited trace gets a new
// one.
//
// The policy component is policyIdentity(opts).
func Fingerprint(opts Options) string {
	cfg := opts.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	warmup := opts.WarmupCycles
	if warmup == 0 {
		warmup = DefaultWarmupCycles
	}
	measure := opts.MeasureCycles
	if measure == 0 {
		measure = DefaultMeasureCycles
	}
	// %#v over value-only structs is deterministic and automatically
	// covers fields added later, at the cost of keys not being stable
	// across releases — fine for an in-process/in-memory cache identity.
	h := sha256.New()
	hashMachine(h, cfg)
	fmt.Fprintf(h, "policy|%s\n", policyIdentity(opts))
	if opts.Trace != nil {
		fmt.Fprintf(h, "trace|%s|%d\n", opts.Trace.Digest, len(opts.Trace.Threads))
		// Replay consumes recorded streams, never the seed — hash a
		// fixed value so requests differing only in seed share the
		// cache entry their identical results deserve.
		seed = 0
	} else {
		hashWorkload(h, opts.Workload)
	}
	fmt.Fprintf(h, "protocol|seed=%d|warmup=%d|measure=%d\n", seed, warmup, measure)
	return hex.EncodeToString(h.Sum(nil))
}

// policyIdentity is the policy component of a fingerprint. For a
// registered policy it is the canonical {Policy, PolicyParams} identity:
// the bare name when every parameter is at its default, so explicit
// defaults share the cache entries of unparameterised requests. For an
// instance run it is "instance:" + PolicyInstance.Name(), with the
// instance's Params() folded in when they are non-empty, so a threshold
// sweep never collides with the base policy's cache entries, and an
// ICOUNT instance keys as plain "instance:ICOUNT".
func policyIdentity(opts Options) string {
	if opts.PolicyInstance == nil {
		return core.PolicyID(opts.Policy, opts.PolicyParams)
	}
	id := "instance:" + opts.PolicyInstance.Name()
	if params := opts.PolicyInstance.Params(); params != "" {
		id += "|" + params
	}
	return id
}

// hashMachine writes the machine component: the full resolved
// processor configuration.
func hashMachine(h io.Writer, cfg *config.Processor) {
	fmt.Fprintf(h, "machine|%#v\n", *cfg)
}

// hashWorkload writes the synthetic-workload component: the workload
// identity plus the calibrated profile of every benchmark (so
// re-registering a benchmark changes every key derived from it).
func hashWorkload(h io.Writer, wl workload.Workload) {
	fmt.Fprintf(h, "workload|%s|%d|%s\n", wl.Name, wl.Threads, wl.Mix)
	for _, b := range wl.Benchmarks {
		if p, err := workload.Get(b); err == nil {
			fmt.Fprintf(h, "bench|%#v\n", *p)
		} else {
			fmt.Fprintf(h, "bench|unknown:%s\n", b)
		}
	}
}

// CheckpointKey returns the content-addressed identity of a run's
// calibrated program cores: a hash of the workload (with the calibrated
// profile of every benchmark) and the seed, the only inputs program
// synthesis and calibration read. The machine, the policy and its
// parameters, and the warmup/measure cycle counts are deliberately
// excluded, so every cell of a policy, threshold or machine sweep over
// one workload and seed shares a key, which is what lets the first cell
// calibrate and the rest fork.
//
// The empty string means "not checkpointable": a trace replay has no
// synthetic program to calibrate.
func CheckpointKey(opts Options) string {
	if opts.Trace != nil {
		return ""
	}
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	h := sha256.New()
	// The version tag is part of the key: a change to what an image
	// holds re-keys every checkpoint instead of decoding stale ones.
	fmt.Fprintf(h, "ckpt|v3\n")
	hashWorkload(h, opts.Workload)
	fmt.Fprintf(h, "seed=%d\n", seed)
	return hex.EncodeToString(h.Sum(nil))
}
