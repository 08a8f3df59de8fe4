package fabric

import "dwarn/internal/obs"

// coordMetrics is the coordinator's instrumentation set: line and
// fleet gauges are func-backed (sampled at scrape time under the
// coordinator lock), lifetime counters double as the totals GET
// /v2/fabric reports, so the status endpoint and /metrics can never
// disagree.
type coordMetrics struct {
	leases    *obs.Counter
	requeues  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	stale     *obs.Counter
}

func newCoordMetrics(reg *obs.Registry, c *Coordinator) *coordMetrics {
	const completes = "dwarn_fabric_completes_total"
	const completesHelp = "Cell completions pushed by fabric workers, by outcome (stale = the cell was already resolved; payload discarded)."
	m := &coordMetrics{
		leases:    reg.Counter("dwarn_fabric_leases_total", "Leases granted to remote fabric workers."),
		requeues:  reg.Counter("dwarn_fabric_requeues_total", "Cells requeued after their lease expired unrenewed (worker death or partition)."),
		completed: reg.Counter(completes, completesHelp, obs.L("outcome", "ok")),
		failed:    reg.Counter(completes, completesHelp, obs.L("outcome", "error")),
		stale:     reg.Counter(completes, completesHelp, obs.L("outcome", "stale")),
	}
	reg.GaugeFunc("dwarn_fabric_queue_depth", "Cells waiting in the executor's line for a local slot or a lease.",
		func() float64 { return float64(c.line.Waiting()) })
	reg.GaugeFunc("dwarn_fabric_workers", "Registered remote fabric workers.",
		func() float64 { return float64(c.WorkerCount()) })
	reg.GaugeFunc("dwarn_fabric_leases_active", "Leases currently held by fabric workers.",
		func() float64 { return float64(c.ActiveLeases()) })
	return m
}
