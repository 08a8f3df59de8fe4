package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Metric is one reported number with its unit and the number of
// samples behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Tail is the highest percentile of op latency that still has at least
// ten samples beyond it.
type Tail struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// Report is one workload measured in one process.
type Report struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the end-to-end metrics scaled to the reference host
	// speed (untraced runs), or the per-layer metrics (traced runs).
	Metrics map[string]Metric `json:"metrics"`
	// Raw are the end-to-end metrics as measured, before scaling;
	// RefWallMS and RefCPUMS are the median reference-kernel burst, in
	// wall time and CPU time per goroutine, the scales came from.
	Raw       map[string]Metric `json:"raw,omitempty"`
	RefWallMS float64           `json:"ref_wall_ms,omitempty"`
	RefCPUMS  float64           `json:"ref_cpu_ms,omitempty"`
	Tail      *Tail             `json:"tail,omitempty"`
	// Digest folds the counter digests of each client's first ops: two
	// reports with equal digests simulated those ops identically.
	Digest string `json:"digest,omitempty"`
	// Problems lists failed ops and correctness-gate mismatches.
	Problems []string `json:"problems,omitempty"`
}

// Pass is every workload run once at one seed.
type Pass struct {
	Seed      uint64    `json:"seed"`
	Workloads []*Report `json:"workloads"`
}

// RunFile is what -out writes and -compare reads: the host and one or
// more passes.
type RunFile struct {
	Version int    `json:"version"`
	Host    Host   `json:"host"`
	Passes  []Pass `json:"passes"`
}

const runFileVersion = 1

// Host records where the numbers were taken.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	CPUModel   string `json:"cpu_model"`
	// Degraded marks a host that cannot run the two-client workloads in
	// parallel, so their numbers do not compare with a multi-core host.
	Degraded bool `json:"degraded"`
}

func hostInfo() Host {
	h := Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		CPUModel:   cpuModel(),
	}
	h.Degraded = h.GOMAXPROCS < 2
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultLine is the one-line JSON summary printed last: exactly the
// keys correct, attempted, failed and metrics, each metric a value and
// its unit.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *Report) line() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRunFile(path string) (*RunFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf RunFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Version != runFileVersion {
		return nil, fmt.Errorf("%s: run file version %d, want %d", path, rf.Version, runFileVersion)
	}
	return &rf, nil
}

// printReport writes a workload's metrics as an aligned table: name,
// value, unit and sample count, in catalogue order.
func printReport(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%s (seed %d, traced %v): attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	order := map[string]int{}
	for i, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		order[m.Name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, name := range names {
		m := r.Metrics[name]
		raw := ""
		if rm, ok := r.Raw[name]; ok {
			raw = fmt.Sprintf("  (raw %.6g)", rm.Value)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-10s n=%d%s\n", name, m.Value, m.Unit, m.Samples, raw)
	}
	if r.RefWallMS > 0 {
		fmt.Fprintf(w, "  host reference burst %.3f ms wall, %.3f ms CPU\n", r.RefWallMS, r.RefCPUMS)
	}
	if r.Tail != nil {
		fmt.Fprintf(w, "  latency tail: p%g = %.4g ms (%d samples, %d beyond)\n",
			r.Tail.Percentile, r.Tail.ValueMS, r.Tail.Samples, r.Tail.Beyond)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}
