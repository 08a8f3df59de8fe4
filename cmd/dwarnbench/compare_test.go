package main

import (
	"os"
	"path/filepath"
	"testing"
)

// runFileOf builds a synthetic run file: one untraced pass per value,
// each holding the given metric values for the engine workload.
func runFileOf(values map[string][]float64) *RunFile {
	rf := &RunFile{Version: runFileVersion}
	n := 0
	for _, vs := range values {
		n = max(n, len(vs))
	}
	for i := range n {
		rep := &Report{Workload: "engine", Correct: true, Attempted: 1, Metrics: map[string]Metric{}}
		for name, vs := range values {
			def, _ := defOf(name)
			rep.Metrics[name] = Metric{Value: vs[i], Unit: def.Unit}
		}
		rf.Passes = append(rf.Passes, Pass{Seed: uint64(i), Workloads: []*Report{rep}})
	}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	bounds := map[string]float64{"throughput_ops_per_s": 0.05, "latency_ms_p50": 0.05, "latency_ms_p90": 0.05, "peak_rss_mb": 0.05}
	base := runFileOf(map[string][]float64{
		"throughput_ops_per_s": {100, 101, 99},
		"latency_ms_p50":       {10, 10.1, 9.9},
		"latency_ms_p90":       {20, 20.2, 19.8},
		"peak_rss_mb":          {50, 40, 60},
	})
	next := runFileOf(map[string][]float64{
		"throughput_ops_per_s": {90, 91, 89},     // 10% fewer ops/s: worse
		"latency_ms_p50":       {9, 9.1, 8.9},    // 10% faster: better
		"latency_ms_p90":       {20.1, 20, 20.3}, // within 5%
		"peak_rss_mb":          {52, 41, 62},     // base spreads 50% > bound: unresolved
	})
	want := map[string]string{
		"throughput_ops_per_s": verdictWorse,
		"latency_ms_p50":       verdictBetter,
		"latency_ms_p90":       verdictWithin,
		"peak_rss_mb":          verdictUnresolved,
	}
	vs := compareRuns(base, next, bounds)
	if len(vs) != len(want) {
		t.Fatalf("%d verdicts, want %d: %+v", len(vs), len(want), vs)
	}
	for _, v := range vs {
		if v.Verdict != want[v.Metric] {
			t.Errorf("%s: %s (change %+.3f, spread %.3f), want %s", v.Metric, v.Verdict, v.Change, v.Spread, want[v.Metric])
		}
	}
}

// A spread wider than the bound still resolves when every run of one
// side beats every run of the other.
func TestCompareSeparatedSidesResolve(t *testing.T) {
	bounds := map[string]float64{"latency_ms_p50": 0.05}
	base := runFileOf(map[string][]float64{"latency_ms_p50": {10, 13, 16}})
	next := runFileOf(map[string][]float64{"latency_ms_p50": {20, 23, 26}})
	vs := compareRuns(base, next, bounds)
	if len(vs) != 1 || vs[0].Verdict != verdictWorse {
		t.Fatalf("verdicts %+v, want one worse", vs)
	}
	vs = compareRuns(next, base, bounds)
	if len(vs) != 1 || vs[0].Verdict != verdictBetter {
		t.Fatalf("verdicts %+v, want one better", vs)
	}
}

// -compare exits 1 on any worse verdict, 0 otherwise; bounds come from
// the BENCHMARK.json it is given.
func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"throughput_ops_per_s","unit":"ops/s","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vs []float64) string {
		p := filepath.Join(dir, name)
		if err := writeJSONFile(p, runFileOf(map[string][]float64{"throughput_ops_per_s": vs})); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", []float64{100, 100.5, 99.5})
	same := write("same.json", []float64{99, 100, 101})
	slow := write("slow.json", []float64{80, 80.5, 79.5})
	if code := compareFiles(bench, base, same); code != 0 {
		t.Errorf("same numbers: exit %d, want 0", code)
	}
	if code := compareFiles(bench, base, slow); code != 1 {
		t.Errorf("20%% slower: exit %d, want 1", code)
	}
}
