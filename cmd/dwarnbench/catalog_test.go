package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// validName is the naming rule BENCHMARK.json imposes on workload and
// metric names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadRootBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every name the benchmark emits follows the naming rule, and is used
// once.
func TestNamesValid(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, m.Name)
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, n := range names {
		if !validName.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the code
// emits, with the same units and directions, and bounds in range.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := loadRootBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json {%q, %q}, code {%q, %q}", i, got.Name, got.Why, w.name, w.why)
		}
		if len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", got.Name)
		}
	}
	check := func(kind string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			f, c := file[i], code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, f, c)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", f.Name, f.Bound)
			}
			if !bounded && f.Bound != 0 {
				t.Errorf("%s: per-layer metrics carry no bound", f.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)

	b := bf.bounds()
	for name, bound := range b {
		if name != "setup_s" && bound > b["setup_s"] {
			t.Errorf("setup_s must carry the largest bound; %s has %g > %g", name, bound, b["setup_s"])
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/dwarnbench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}
