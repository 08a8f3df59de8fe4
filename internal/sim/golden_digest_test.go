package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden counter digests")

// goldenRun is the fixed scenario the digests pin: every registered
// policy on the 4-MIX workload with the default seed. The run is short
// enough to keep the test fast but long enough to exercise squashes,
// flushes, TLB misses, and every event kind.
const (
	goldenWorkload = "4-MIX"
	goldenSeed     = 42
	goldenWarmup   = 3000
	goldenMeasure  = 10000
)

// wideScenarios widen the pinned set beyond baseline 4-MIX: a 2-thread
// and an 8-thread workload on the baseline machine, and 4-MIX on the
// narrow machine (4-wide, 2 LS units: unit budgets bind in issue) and
// the deep one (64-entry queues: long wakeup chains). They run a
// shorter protocol than goldenRun so all seven policies stay cheap.
var wideScenarios = []struct {
	machine, workload string
}{
	{"baseline", "2-MIX"},
	{"baseline", "8-MEM"},
	{"small", "4-MIX"},
	{"deep", "4-MIX"},
}

const (
	wideWarmup  = 2000
	wideMeasure = 6000
)

// goldenEntry records one policy's digest plus human-readable counters
// so a mismatch report shows what moved, not just that something did.
type goldenEntry struct {
	Digest    string   `json:"digest"`
	Cycles    int64    `json:"cycles"`
	Committed []uint64 `json:"committed"`
	Fetched   []uint64 `json:"fetched"`
}

// digestResult pairs Result.CounterDigest (the shared equality oracle)
// with human-readable counters so a mismatch report shows what moved.
func digestResult(res *Result) goldenEntry {
	e := goldenEntry{Digest: res.CounterDigest(), Cycles: res.Cycles}
	for i := range res.Threads {
		t := &res.Threads[i]
		e.Committed = append(e.Committed, t.Pipeline.Committed)
		e.Fetched = append(e.Fetched, t.Pipeline.Fetched)
	}
	return e
}

// runGolden runs every registered policy on one scenario and returns
// the per-policy entries.
func runGolden(t *testing.T, machine, wlName string, warmup, measure int64) map[string]goldenEntry {
	t.Helper()
	cfg, err := config.ByName(machine)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenEntry)
	for _, policy := range core.Policies() {
		res, err := Run(Options{
			Config:        cfg,
			Policy:        policy,
			Workload:      wl,
			Seed:          goldenSeed,
			WarmupCycles:  warmup,
			MeasureCycles: measure,
		})
		if err != nil {
			t.Fatalf("%s/%s %s: %v", machine, wlName, policy, err)
		}
		got[policy] = digestResult(res)
	}
	return got
}

// readGolden loads a golden file into want; writeGolden replaces it.
func readGolden(t *testing.T, path string, want any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
}

func writeGolden(t *testing.T, path string, got any) {
	t.Helper()
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// compareGolden reports every policy whose digest moved, and every
// policy present on only one side.
func compareGolden(t *testing.T, label string, got, want map[string]goldenEntry) {
	t.Helper()
	for policy, g := range got {
		w, ok := want[policy]
		if !ok {
			t.Errorf("%s %s: no golden entry (run with -update)", label, policy)
			continue
		}
		if g.Digest != w.Digest {
			t.Errorf("%s %s: counter digest changed\n got %s (committed %v, fetched %v, cycles %d)\nwant %s (committed %v, fetched %v, cycles %d)",
				label, policy, g.Digest, g.Committed, g.Fetched, g.Cycles,
				w.Digest, w.Committed, w.Fetched, w.Cycles)
		}
	}
	for policy := range want {
		if _, ok := got[policy]; !ok {
			t.Errorf("%s %s: golden entry for unregistered policy (run with -update)", label, policy)
		}
	}
}

// TestGoldenCounterDigests is the determinism regression oracle for the
// cycle engine: per-thread counter digests for all registered policies
// on a fixed 4-MIX run, pinned from the pre-zero-alloc engine. Any
// refactor of the event queue, instruction lifecycle, or issue select
// must keep these digests bit-identical. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenCounterDigests -update
//
// The file's shape (policy → entry) is also read by cmd/dwarnbench's
// golden check, so it stays one flat map.
func TestGoldenCounterDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden_digests.json")
	got := runGolden(t, "baseline", goldenWorkload, goldenWarmup, goldenMeasure)
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string]goldenEntry
	readGolden(t, path, &want)
	compareGolden(t, "baseline/"+goldenWorkload, got, want)
}

// TestGoldenCounterDigestsWide pins wideScenarios the same way, keyed
// "machine/workload" → policy → entry. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenCounterDigestsWide -update
func TestGoldenCounterDigestsWide(t *testing.T) {
	path := filepath.Join("testdata", "golden_digests_wide.json")
	got := make(map[string]map[string]goldenEntry)
	for _, sc := range wideScenarios {
		got[sc.machine+"/"+sc.workload] = runGolden(t, sc.machine, sc.workload, wideWarmup, wideMeasure)
	}
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string]map[string]goldenEntry
	readGolden(t, path, &want)
	for label, g := range got {
		compareGolden(t, label, g, want[label])
	}
	for label := range want {
		if _, ok := got[label]; !ok {
			t.Errorf("%s: golden scenario no longer run (run with -update)", label)
		}
	}
}
