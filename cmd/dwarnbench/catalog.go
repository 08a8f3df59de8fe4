package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark can report. The catalogue
// below is the code's side of BENCHMARK.json: TestCatalogMatchesBenchmarkJSON
// keeps the two identical, and BENCHMARK.json alone carries the
// regression bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the repository sees: how long a workload
// takes to get going, how much work it completes per second, how long
// one operation takes, and what it costs in CPU and memory. Every
// workload reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// cpuShares are the CPU-profile buckets, in percent of the traced
// phase's profiled CPU time; see classifyStack for the grouping.
var cpuShares = []string{
	"cpu.pipeline.fetch", "cpu.pipeline.dispatch", "cpu.pipeline.issue",
	"cpu.pipeline.events", "cpu.pipeline.commit", "cpu.pipeline.squash",
	"cpu.pipeline.other", "cpu.core.policy", "cpu.mem", "cpu.bpred",
	"cpu.workload.stream", "cpu.workload.build", "cpu.sim", "cpu.ckpt",
	"cpu.exec", "cpu.service", "cpu.json", "cpu.http", "cpu.io",
	"cpu.runtime.gc", "cpu.other",
}

// perLayer is what the traced run reports. A workload that bypasses a
// layer reports 0 for that layer's times, ratios and counts.
var perLayer = append(append([]metricDef{
	// Simulator host time per simulated event.
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_committed_uop", Unit: "ns", Better: "lower"},
	{Name: "sim.run_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "sim.runs_per_op", Unit: "count", Better: "lower"},
}, shareDefs()...),
	// The modelled machine; identical whenever the model is unchanged.
	metricDef{Name: "model.ipc", Unit: "uop/cycle", Better: "higher"},
	metricDef{Name: "model.l1d_load_miss_rate", Unit: "fraction", Better: "lower"},
	metricDef{Name: "model.l2_load_miss_rate", Unit: "fraction", Better: "lower"},
	metricDef{Name: "model.wrong_path_fetch_share", Unit: "fraction", Better: "lower"},
	metricDef{Name: "model.flush_squash_share", Unit: "fraction", Better: "lower"},
	metricDef{Name: "model.bpred_mispredict_rate", Unit: "fraction", Better: "lower"},
	metricDef{Name: "model.dwarn_gain_over_icount_pct", Unit: "%", Better: "higher"},
	// Checkpoint/fork engine.
	metricDef{Name: "ckpt.hit_ratio", Unit: "fraction", Better: "higher"},
	metricDef{Name: "ckpt.warmups_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "ckpt.get_us_p50", Unit: "us", Better: "lower"},
	metricDef{Name: "ckpt.put_us_p50", Unit: "us", Better: "lower"},
	metricDef{Name: "ckpt.image_kb", Unit: "KB", Better: "lower"},
	metricDef{Name: "ckpt.fallbacks", Unit: "count", Better: "lower"},
	// Spec resolution and the sweep executor.
	metricDef{Name: "spec.resolve_us_p50", Unit: "us", Better: "lower"},
	metricDef{Name: "exec.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "exec.cell_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "exec.pool_utilization", Unit: "fraction", Better: "higher"},
	metricDef{Name: "exec.store_hit_ratio", Unit: "fraction", Better: "higher"},
	metricDef{Name: "exec.dedup_per_op", Unit: "count", Better: "lower"},
	// The dwarnd service.
	metricDef{Name: "service.hot_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.cold_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.job_queue_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.job_run_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.poll_overshoot_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.polls_per_cold_op", Unit: "count", Better: "lower"},
	metricDef{Name: "service.http.post_runs_ms_mean", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.http.get_run_ms_mean", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.http.post_sweeps_ms_mean", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.sweep_fresh_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.sweep_repeat_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.sse_first_cell_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "service.cache_hit_ratio", Unit: "fraction", Better: "higher"},
	// Durable result store and submission journal.
	metricDef{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	metricDef{Name: "store.put_ms_p50", Unit: "ms", Better: "lower"},
	metricDef{Name: "store.puts_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "journal.appends_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "journal.append_ms_p50", Unit: "ms", Better: "lower"},
	// Go runtime and the harness itself.
	metricDef{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	metricDef{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
)

func shareDefs() []metricDef {
	out := make([]metricDef, len(cpuShares))
	for i, n := range cpuShares {
		out[i] = metricDef{Name: n, Unit: "%", Better: "lower"}
	}
	return out
}

// benchmarkFile is the subset of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// bounds maps each end-to-end metric to its regression bound.
func (bf *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// defOf finds a metric in the catalogue.
func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
