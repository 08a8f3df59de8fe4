package ckpt

import (
	"sync"

	"dwarn/internal/obs"
)

// Checkpoint metrics live on obs.Default, like the sim run metrics:
// dwarnd merges them into /metrics and `smtsim -metrics` dumps them, so
// "how many warmups did this sweep actually execute" is answerable from
// any frontend. Recording happens at the one semantic decision point —
// sim's fork-or-calibrate branch — not inside stores, so tiering never
// double-counts.
var met struct {
	once      sync.Once
	hits      *obs.Counter
	misses    *obs.Counter
	fallbacks *obs.Counter
	bytes     *obs.Gauge
	total     float64
	mu        sync.Mutex
}

func initMetrics() {
	r := obs.Default
	met.hits = r.Counter("dwarn_ckpt_hits_total",
		"Simulations forked from a stored checkpoint's calibrated program cores instead of calibrating cold.")
	met.misses = r.Counter("dwarn_ckpt_misses_total",
		"Simulations that calibrated cold and published a checkpoint (one per distinct workload/seed group when stores are shared).")
	met.fallbacks = r.Counter("dwarn_ckpt_fallbacks_total",
		"Stored checkpoints whose cores did not fit the run's workload; the run fell back to a cold calibration.")
	met.bytes = r.Gauge("dwarn_ckpt_bytes",
		"Cumulative in-memory bytes (Image.ApproxBytes: materialized program cores) of the checkpoints built by this process; an image's encoding is a few KB.")
}

// RecordHit counts one simulation forked from a checkpoint.
func RecordHit() {
	met.once.Do(initMetrics)
	met.hits.Inc()
}

// RecordMiss counts one simulation that calibrated cold and published a
// checkpoint holding bytes in memory.
func RecordMiss(bytes int) {
	met.once.Do(initMetrics)
	met.misses.Inc()
	met.mu.Lock()
	met.total += float64(bytes)
	met.bytes.Set(met.total)
	met.mu.Unlock()
}

// RecordFallback counts a stored image that was abandoned for a cold
// calibration.
func RecordFallback() {
	met.once.Do(initMetrics)
	met.fallbacks.Inc()
}
