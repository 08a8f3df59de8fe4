package main

import (
	"fmt"
	"runtime"
	"sort"
)

// layerInput is everything the traced phase measured.
type layerInput struct {
	b        phaseStats // the traced phase
	tr       *tracer
	delta    scrapeDelta
	shares   map[string]float64
	journal  []float64 // journal append probe latencies, ms
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	model    []resultRef // each client's first ops in the traced phase
	overhead float64     // trace.overhead_pct
	workers  int
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes every per-layer metric. A layer the workload
// bypasses has no spans and no counter movement, so its metrics read 0.
func layerMetrics(in layerInput) (map[string]Metric, error) {
	d := in.tr.durations()
	ops := float64(in.b.ops)
	m := map[string]Metric{}
	set := func(name string, v float64, n int) {
		def, ok := defOf(name)
		if !ok {
			panic("dwarnbench: metric " + name + " missing from the catalogue")
		}
		m[name] = Metric{Value: v, Unit: def.Unit, Samples: n}
	}
	p50 := func(name string, scale float64) (float64, int) {
		s := sortedCopy(d[name])
		return percentile(s, 50) * scale, len(s)
	}
	sum := func(name string) float64 {
		var s float64
		for _, v := range d[name] {
			s += v
		}
		return s
	}
	setP50 := func(metric, span string, scale float64) {
		v, n := p50(span, scale)
		set(metric, v, n)
	}
	dl := in.delta

	// Simulator host time per simulated event (all runs in the phase).
	cycles := dl.sum("dwarn_sim_cycles_total", "")
	uops := dl.sum("dwarn_sim_uops_total", "")
	runSec := dl.sum("dwarn_sim_run_seconds_sum", "")
	runs := dl.sum("dwarn_sim_run_seconds_count", "")
	set("sim.ns_per_cycle", ratio(runSec*1e9, cycles), int(runs))
	set("sim.ns_per_committed_uop", ratio(runSec*1e9, uops), int(runs))
	set("sim.run_ms_mean", ratio(runSec*1e3, runs), int(runs))
	set("sim.runs_per_op", ratio(runs, ops), in.b.ops)

	for _, name := range cpuShares {
		set(name, in.shares[name], in.b.ops)
	}

	if err := modelMetrics(in.model, set); err != nil {
		return nil, err
	}

	hits := dl.sum("dwarn_ckpt_hits_total", "")
	misses := dl.sum("dwarn_ckpt_misses_total", "")
	set("ckpt.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	set("ckpt.warmups_per_op", ratio(misses, ops), in.b.ops)
	setP50("ckpt.get_us_p50", "ckpt.get", 1e3)
	setP50("ckpt.put_us_p50", "ckpt.put", 1e3)
	set("ckpt.image_kb", ratio(dl.sum("dwarn_ckpt_bytes", ""), misses)/1024, int(misses))
	set("ckpt.fallbacks", dl.sum("dwarn_ckpt_fallbacks_total", ""), int(hits+misses))

	setP50("spec.resolve_us_p50", "spec.resolve", 1e3)
	setP50("exec.queue_wait_ms_p50", "cell.queue", 1)
	setP50("exec.cell_ms_p50", "cell.run", 1)
	set("exec.pool_utilization", ratio(sum("cell.run"), float64(in.workers)*sum("exec.Execute")), len(d["cell.run"]))
	sh := dl.sum("dwarn_exec_store_hits_total", "")
	sm := dl.sum("dwarn_exec_store_misses_total", "")
	set("exec.store_hit_ratio", ratio(sh, sh+sm), int(sh+sm))
	set("exec.dedup_per_op", ratio(dl.sum("dwarn_exec_singleflight_dedup_total", ""), ops), in.b.ops)

	setP50("service.hot_ms_p50", "op.hot", 1)
	setP50("service.cold_ms_p50", "op.cold", 1)
	setP50("service.job_queue_ms_p50", "job.queue", 1)
	setP50("service.job_run_ms_p50", "job.run", 1)
	setP50("service.poll_overshoot_ms_p50", "poll.overshoot", 1)
	cold := len(d["op.cold"])
	set("service.polls_per_cold_op", ratio(float64(in.tr.counts["polls"]), float64(cold)), cold)
	for _, r := range []struct{ metric, route string }{
		{"service.http.post_runs_ms_mean", "POST /v2/runs"},
		{"service.http.get_run_ms_mean", "GET /v2/runs/{id}"},
		{"service.http.post_sweeps_ms_mean", "POST /v2/sweeps"},
	} {
		match := fmt.Sprintf(`route=%q`, r.route)
		n := dl.sum("dwarn_http_request_seconds_count", match)
		set(r.metric, ratio(dl.sum("dwarn_http_request_seconds_sum", match)*1e3, n), int(n))
	}
	setP50("service.sweep_fresh_ms_p50", "op.fresh", 1)
	setP50("service.sweep_repeat_ms_p50", "op.repeat", 1)
	setP50("service.sse_first_cell_ms_p50", "sse.first_cell", 1)
	ch := dl.sum("dwarn_cache_hits_total", "")
	cm := dl.sum("dwarn_cache_misses_total", "")
	set("service.cache_hit_ratio", ratio(ch, ch+cm), int(ch+cm))

	setP50("store.get_us_p50", "store.get", 1e3)
	setP50("store.put_ms_p50", "store.put", 1)
	set("store.puts_per_op", ratio(float64(len(d["store.put"])), ops), in.b.ops)
	set("journal.appends_per_op", ratio(dl.sum("dwarn_journal_appends_total", ""), ops), in.b.ops)
	set("journal.append_ms_p50", percentile(sortedCopy(in.journal), 50), len(in.journal))

	set("runtime.alloc_kb_per_op", ratio(float64(in.mem1.TotalAlloc-in.mem0.TotalAlloc)/1024, ops), in.b.ops)
	set("runtime.gc_cycles_per_op", ratio(float64(in.mem1.NumGC-in.mem0.NumGC), ops), in.b.ops)
	set("trace.overhead_pct", in.overhead, in.b.ops)
	return m, nil
}

// modelMetrics aggregates the simulated machine's own statistics over
// the results of each client's first ops. They depend only on the seed
// and the model, never on host speed.
func modelMetrics(refs []resultRef, set func(string, float64, int)) error {
	var committed, cycles, loads, l1, l2, fetched, wrong, flushed, branches, mispred float64
	tput := map[string]map[string]float64{} // group -> policy -> throughput
	for _, ref := range refs {
		res, err := ref.get()
		if err != nil {
			return fmt.Errorf("%s: %w", ref.label, err)
		}
		cycles += float64(res.Cycles)
		for _, t := range res.Threads {
			committed += float64(t.Pipeline.Committed)
			loads += float64(t.Pipeline.Loads)
			l1 += float64(t.Pipeline.LoadL1Misses)
			l2 += float64(t.Pipeline.LoadL2Misses)
			fetched += float64(t.Pipeline.Fetched)
			wrong += float64(t.Pipeline.WrongPathFetched)
			flushed += float64(t.Pipeline.FlushSquashed)
			branches += float64(t.Bpred.TotalBranches)
			mispred += float64(t.Bpred.TotalMispred)
		}
		if tput[ref.group] == nil {
			tput[ref.group] = map[string]float64{}
		}
		tput[ref.group][ref.policy] = res.Throughput
	}
	n := len(refs)
	set("model.ipc", ratio(committed, cycles), n)
	set("model.l1d_load_miss_rate", ratio(l1, loads), n)
	set("model.l2_load_miss_rate", ratio(l2, loads), n)
	set("model.wrong_path_fetch_share", ratio(wrong, fetched), n)
	set("model.flush_squash_share", ratio(flushed, fetched), n)
	set("model.bpred_mispredict_rate", ratio(mispred, branches), n)
	groups := make([]string, 0, len(tput))
	for g := range tput {
		groups = append(groups, g)
	}
	sort.Strings(groups) // a fixed summation order keeps the mean bit-identical
	var gains []float64
	for _, g := range groups {
		byPolicy := tput[g]
		dw, okD := byPolicy["dwarn"]
		ic, okI := byPolicy["icount"]
		if okD && okI && ic > 0 {
			gains = append(gains, (dw/ic-1)*100)
		}
	}
	set("model.dwarn_gain_over_icount_pct", mean(gains), len(gains))
	return nil
}

// modelRefs lists the traced phase's prefix results.
func (h *harness) modelRefs() []resultRef {
	out := make([]resultRef, 0, len(h.prefix[1]))
	for _, e := range h.prefix[1] {
		out = append(out, e.ref)
	}
	return out
}
