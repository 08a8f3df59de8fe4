package exec

import (
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
)

// metrics is the executor's instrumentation set, registered on the
// executor's obs registry (obs.Default unless Options.Registry names
// another — the dwarnd service passes its own so per-server counters
// stay isolated in tests). All handles are pre-created; the per-cell
// paths only touch atomics, except the per-policy histogram, which is
// one registry lookup (get-or-create, RLock on a hit) per simulated
// cell — noise next to the simulation it measures.
type metrics struct {
	reg *obs.Registry

	cellsDone     *obs.Counter // terminal cells by state
	cellsCached   *obs.Counter
	cellsFailed   *obs.Counter
	cellsCanceled *obs.Counter

	storeHits   *obs.Counter
	storeMisses *obs.Counter
	storePuts   *obs.Counter
	dedup       *obs.Counter

	workers     *obs.Gauge
	workersBusy *obs.Gauge
	cellsPerSec *obs.Gauge
}

func newMetrics(reg *obs.Registry, workers int) *metrics {
	if reg == nil {
		reg = obs.Default
	}
	const cells = "dwarn_exec_cells_total"
	const cellsHelp = "Terminal sweep cells by outcome: done paid for a simulation, cached was served by the store or a concurrent identical cell."
	m := &metrics{
		reg:           reg,
		cellsDone:     reg.Counter(cells, cellsHelp, obs.L("state", CellDone)),
		cellsCached:   reg.Counter(cells, cellsHelp, obs.L("state", CellCached)),
		cellsFailed:   reg.Counter(cells, cellsHelp, obs.L("state", CellFailed)),
		cellsCanceled: reg.Counter(cells, cellsHelp, obs.L("state", CellCanceled)),
		storeHits:     reg.Counter("dwarn_exec_store_hits_total", "Result-store lookups that found a finished result (resumes and cross-frontend reuse)."),
		storeMisses:   reg.Counter("dwarn_exec_store_misses_total", "Result-store lookups that missed."),
		storePuts:     reg.Counter("dwarn_exec_store_puts_total", "Finished results persisted to the store."),
		dedup:         reg.Counter("dwarn_exec_singleflight_dedup_total", "Cells that joined an identical in-flight simulation instead of starting their own."),
		workers:       reg.Gauge("dwarn_exec_workers", "Local slots draining the executor's wait line."),
		workersBusy:   reg.Gauge("dwarn_exec_workers_busy", "Local slots currently inside a simulation."),
		cellsPerSec:   reg.Gauge("dwarn_exec_cells_per_second", "Terminal cells per second over the most recent Execute batch."),
	}
	m.workers.Set(float64(workers))
	return m
}

// cellSeconds returns the wall-time histogram for a policy, creating
// it on first sight. Policy names come from the bounded registry in
// internal/core, so cardinality is the policy count, not the sweep
// size.
func (m *metrics) cellSeconds(policy string) *obs.Histogram {
	if policy == "" {
		policy = "custom"
	}
	return m.reg.Histogram("dwarn_exec_cell_seconds",
		"Wall time of one simulated sweep cell, by fetch policy.",
		obs.CellBuckets, obs.L("policy", policy))
}

// cellTerminal counts one terminal cell event.
func (m *metrics) cellTerminal(state string) {
	switch state {
	case CellDone:
		m.cellsDone.Inc()
	case CellCached:
		m.cellsCached.Inc()
	case CellFailed:
		m.cellsFailed.Inc()
	case CellCanceled:
		m.cellsCanceled.Inc()
	}
}

// countingStore wraps the executor's Store so every lookup and write —
// including the service's submit-time prechecks, which go through
// Executor.Store() — lands in the hit/miss/put counters.
type countingStore struct {
	inner Store
	m     *metrics
}

// Get implements Store.
func (cs countingStore) Get(fp string) (*sim.Result, bool) {
	res, ok := cs.inner.Get(fp)
	if ok {
		cs.m.storeHits.Inc()
	} else {
		cs.m.storeMisses.Inc()
	}
	return res, ok
}

// Put implements Store.
func (cs countingStore) Put(fp string, res *sim.Result) {
	cs.m.storePuts.Inc()
	cs.inner.Put(fp, res)
}

// batchRate folds one Execute batch into the cells/sec gauge.
func (m *metrics) batchRate(cells int, elapsed time.Duration) {
	if cells == 0 || elapsed <= 0 {
		return
	}
	m.cellsPerSec.Set(float64(cells) / elapsed.Seconds())
}
