package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dwarn"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
)

// processStart approximates when this process started: package
// variables initialise before main runs.
var processStart = time.Now()

// opID identifies one operation of a workload.
type opID struct {
	client int
	// k indexes the workload's spec stream; every spec is generated
	// from the seed and k, so each op gets fresh (workload, seed) groups.
	k int
	// local is the op's position in its client's closed loop; -1 marks
	// a warm-up op, whose time counts in setup.
	local int
	// phase is 0 for the untraced run and 1 for the traced one.
	phase int
}

func (o opID) warm() bool { return o.local < 0 }

// env is one workload's running system under test: for the service
// workloads an in-process dwarnd, for the others the library itself.
type env interface {
	// op performs one closed-loop operation and names its kind ("run",
	// "hot", "cold", ...); the traced run keeps a latency series per
	// kind.
	op(ctx context.Context, o opID) (kind string, err error)
	// registry is the server's metrics registry, nil without a server.
	registry() *obs.Registry
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	why     string
	clients int
	// ops is the op count of a fixed-size pass (split across clients).
	ops int
	// prefixOps is, per client, how many leading ops fix Report.Digest
	// and the model metrics, so both repeat exactly at a given seed.
	prefixOps int
	// verify puts the workload's results into the correctness sample.
	verify bool
	newEnv func(h *harness, tr *tracer, dir string) (env, error)
}

// phaseBBase offsets the traced phase's spec stream so its ops never
// repeat the untraced phase's specs. It is a multiple of 36, so every
// op rotation (18 engine ops, 3 workloads, every 4th op) starts
// aligned.
const phaseBBase = 3_600_000

// setupRuns is how many times each run builds its environment; setup_s
// is their median.
const setupRuns = 9

// verifySample is how many results the correctness gate recomputes.
const verifySample = 12

// resultRef is one simulation result a workload produced, with the
// options that recompute it serially.
type resultRef struct {
	label  string
	opts   sim.Options
	policy string
	// group names the (workload, seed) the result belongs to; results
	// of one group under different policies pair up for the DWarn-gain
	// metric.
	group string
	// throughput is the value the service reported for the cell before
	// the full result was read back; nil when none was reported.
	throughput *float64
	get        func() (*sim.Result, error)
}

type prefixEntry struct {
	client, local, idx int
	ref                resultRef
}

// harness runs one workload: set-up, the timed closed loop, and the
// correctness gate.
type harness struct {
	w       *workload
	seed    uint64
	scratch string
	// spin is how many spin iterations the self-test policy wrapper
	// burns per simulated cycle; 0 runs policies unwrapped.
	spin int
	ref  *refKernel

	mu sync.Mutex
	// sample is a seeded reservoir of the results recorded so far, the
	// correctness gate's input; seen counts them. A fixed-size sample
	// keeps the harness's memory flat however many ops a run completes.
	sample   []resultRef
	seen     int
	pick     *rand.Rand
	prefix   [2][]prefixEntry
	problems []string
	dirs     int
}

// seedFor derives the seed of one spec group from the run seed.
func (h *harness) seedFor(tag string, client, group int) uint64 {
	return deriveSeed(h.seed, tag, client, group)
}

// warmSeed is the seed of a warm-up op. It ignores the run seed, so
// every run's set-up does the same work and setup_s compares across
// runs; each of a run's set-ups still gets its own seed.
func warmSeed(tag string, client, i int) uint64 {
	return deriveSeed(0, tag+"-warm", client, i)
}

func deriveSeed(seed uint64, tag string, client, group int) uint64 {
	hs := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	hs.Write(b[:])
	fmt.Fprintf(hs, "|%s|%d|%d", tag, client, group)
	s := binary.LittleEndian.Uint64(hs.Sum(nil))
	if s == 0 {
		s = 1 // 0 means "default seed" to the simulator
	}
	return s
}

// newDir returns a fresh scratch directory for one environment.
func (h *harness) newDir(name string) (string, error) {
	h.mu.Lock()
	h.dirs++
	d := filepath.Join(h.scratch, fmt.Sprintf("%s-%d", name, h.dirs))
	h.mu.Unlock()
	return d, os.MkdirAll(d, 0o755)
}

// record files an op's new results for the correctness sample and, for
// each client's first ops, for the digest and model metrics.
func (h *harness) record(o opID, refs ...resultRef) {
	if o.warm() || len(refs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.w.verify {
		if h.pick == nil {
			h.pick = rand.New(rand.NewPCG(h.seed, 0x76657269667921))
		}
		for _, r := range refs {
			h.seen++
			if len(h.sample) < verifySample {
				h.sample = append(h.sample, r)
			} else if j := h.pick.IntN(h.seen); j < verifySample {
				h.sample[j] = r
			}
		}
	}
	if o.local < h.w.prefixOps {
		for i, r := range refs {
			h.prefix[o.phase] = append(h.prefix[o.phase], prefixEntry{client: o.client, local: o.local, idx: i, ref: r})
		}
	}
}

func (h *harness) problem(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// setup builds the environment n times, each build followed by one
// discarded op per client, and returns each build's duration and the
// last environment. The first build's duration starts at process start.
// After each build ref times one reference burst, so set-up time is
// scaled by the host's speed while it ran.
func (h *harness) setup(n int, ref *hostRef) ([]float64, env, error) {
	var times []float64
	var e env
	for i := 0; i < n; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		dir, err := h.newDir("setup")
		if err != nil {
			return nil, nil, err
		}
		if e, err = h.w.newEnv(h, nil, dir); err != nil {
			return nil, nil, err
		}
		if err := h.warm(e, 0, i); err != nil {
			e.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		ref.burst()
	}
	return times, e, nil
}

// warm runs one discarded op per client, in parallel.
func (h *harness) warm(e env, phase, i int) error {
	errs := make([]error, h.w.clients)
	var wg sync.WaitGroup
	for c := range h.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[c] = e.op(context.Background(), opID{client: c, k: -1 - i - 100*phase, local: -1, phase: phase})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// phaseStats is one closed-loop phase's raw measurements.
type phaseStats struct {
	lat    []float64 // op latencies, ms
	ops    int
	failed int
	// wall and cpu cover the clients' segments, not the reference
	// bursts between them.
	wall time.Duration
	cpu  time.Duration
	// rssMB is the peak RSS once the workload's fixed-size op count had
	// completed, or at the end of a shorter phase.
	rssMB float64
	ref   *hostRef
}

// clientStats is one client's share of a phase.
type clientStats struct {
	lat    []float64
	failed int
}

// runPhase drives every client's closed loop — each client sends its
// next op only after the previous one returns — until each has done
// opsPerClient ops (when > 0) or dur has passed (when > 0). The loop
// runs in segments; before each segment and after the last, the
// clients rest while ref times one reference burst.
func (h *harness) runPhase(e env, tr *tracer, ref *hostRef, phase, kBase, opsPerClient int, dur time.Duration) phaseStats {
	ps := phaseStats{ref: ref, rssMB: -1}
	per := make([]clientStats, h.w.clients)
	var completed atomic.Int64
	finished := func() bool {
		if dur > 0 {
			return ps.wall >= dur
		}
		for _, cs := range per {
			if len(cs.lat) < opsPerClient {
				return false
			}
		}
		return true
	}
	for !finished() {
		ps.ref.burst()
		limit := segment
		if dur > 0 {
			limit = min(limit, dur-ps.wall)
		}
		cpu0, start := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for c := range h.w.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs := &per[c]
				for time.Since(start) < limit && (opsPerClient == 0 || len(cs.lat) < opsPerClient) {
					h.clientOp(e, tr, cs, opID{client: c, k: kBase + len(cs.lat), local: len(cs.lat), phase: phase})
					if completed.Add(1) == int64(h.w.ops) {
						ps.rssMB = peakRSSMB()
					}
				}
			}()
		}
		wg.Wait()
		ps.wall += time.Since(start)
		ps.cpu += cpuTime() - cpu0
	}
	ps.ref.burst()
	if ps.rssMB < 0 {
		ps.rssMB = peakRSSMB()
	}
	for _, cs := range per {
		ps.lat = append(ps.lat, cs.lat...)
		ps.ops += len(cs.lat)
		ps.failed += cs.failed
	}
	return ps
}

// clientOp runs and times one op of a client's closed loop.
func (h *harness) clientOp(e env, tr *tracer, cs *clientStats, o opID) {
	ctx := context.Background()
	var root spanRef
	if tr != nil {
		root = tr.reserve(fmt.Sprintf("%s-%d-%d-%d", h.w.name, o.phase, o.client, o.local), spanRef{})
		ctx = withSpan(ctx, root)
		if h.w.clients == 1 {
			tr.setCurrent(root)
		}
	}
	t0 := time.Now()
	kind, err := e.op(ctx, o)
	t1 := time.Now()
	tr.finish(root, "op."+kind, t0, t1)
	cs.lat = append(cs.lat, float64(t1.Sub(t0))/1e6)
	if err != nil {
		cs.failed++
		h.problem("%s client %d op %d: %v", h.w.name, o.client, o.local, err)
	}
}

func (p phaseStats) throughput() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.ops) / p.wall.Seconds()
}

// scaledThroughput is the throughput at the nominal host speed.
func (p phaseStats) scaledThroughput() float64 {
	wallScale, _ := p.ref.scales()
	return p.throughput() / wallScale
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// endToEndMetrics turns the set-up times and the untraced phase into
// the end-to-end metrics, raw and scaled to the reference host speed:
// set-up time is multiplied by the wall scale of the bursts timed
// during set-up (setupRef), the phase's times by its own wall scale and
// throughput divided by it, CPU time by its CPU scale; memory is not
// scaled.
func endToEndMetrics(setups []float64, setupRef *hostRef, a phaseStats) (scaled, raw map[string]Metric, tail *Tail) {
	setupScale, _ := setupRef.scales()
	wallScale, cpuScale := a.ref.scales()
	sorted := sortedCopy(a.lat)
	raw = map[string]Metric{
		"setup_s":              {Value: median(setups), Unit: "s", Samples: len(setups)},
		"throughput_ops_per_s": {Value: a.throughput(), Unit: "ops/s", Samples: a.ops},
		"latency_ms_p50":       {Value: percentile(sorted, 50), Unit: "ms", Samples: a.ops},
		"latency_ms_p90":       {Value: percentile(sorted, 90), Unit: "ms", Samples: a.ops},
		"cpu_ms_per_op":        {Value: float64(a.cpu) / 1e6 / float64(max(a.ops, 1)), Unit: "ms", Samples: a.ops},
		"peak_rss_mb":          {Value: a.rssMB, Unit: "MB", Samples: 1},
	}
	scaled = map[string]Metric{}
	for name, m := range raw {
		switch name {
		case "setup_s":
			m.Value *= setupScale
		case "throughput_ops_per_s":
			m.Value /= wallScale
		case "cpu_ms_per_op":
			m.Value *= cpuScale
		case "peak_rss_mb":
		default:
			m.Value *= wallScale
		}
		scaled[name] = m
	}
	if p, beyond, ok := tailPercentile(len(sorted)); ok {
		tail = &Tail{Percentile: p, ValueMS: percentile(sorted, p) * wallScale, Samples: len(sorted), Beyond: beyond}
	}
	return scaled, raw, tail
}

// digest folds the counter digests of the phase's prefix results.
func (h *harness) digest(phase int) (string, error) {
	entries := append([]prefixEntry(nil), h.prefix[phase]...)
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.client != b.client {
			return a.client < b.client
		}
		if a.local != b.local {
			return a.local < b.local
		}
		return a.idx < b.idx
	})
	hs := sha256.New()
	for _, e := range entries {
		res, err := e.ref.get()
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ref.label, err)
		}
		fmt.Fprintf(hs, "%d %d %d %s\n", e.client, e.local, e.idx, res.CounterDigest())
	}
	return hex.EncodeToString(hs.Sum(nil)), nil
}

// checkShape rejects a result that cannot belong to the options that
// asked for it.
func checkShape(res *sim.Result, opts sim.Options) error {
	switch {
	case res == nil:
		return fmt.Errorf("no result")
	case res.Cycles != opts.MeasureCycles:
		return fmt.Errorf("measured %d cycles, asked for %d", res.Cycles, opts.MeasureCycles)
	case len(res.Threads) != opts.Workload.Threads:
		return fmt.Errorf("%d threads, workload has %d", len(res.Threads), opts.Workload.Threads)
	case !(res.Throughput > 0):
		return fmt.Errorf("throughput %v", res.Throughput)
	}
	return nil
}

// verify is the correctness gate: the engine must reproduce the golden
// counter digests, and a seeded sample of the workload's results must
// equal a serial recomputation with checkpoints off.
func (h *harness) verify(root string) {
	if err := checkGolden(root); err != nil {
		h.problem("golden digests: %v", err)
	}
	for _, ref := range h.sample {
		got, err := ref.get()
		if err != nil {
			h.problem("verify %s: reading result: %v", ref.label, err)
			continue
		}
		if err := checkShape(got, ref.opts); err != nil {
			h.problem("verify %s: %v", ref.label, err)
			continue
		}
		if ref.throughput != nil && *ref.throughput != got.Throughput {
			h.problem("verify %s: reported throughput %v, stored result %v", ref.label, *ref.throughput, got.Throughput)
		}
		opts := ref.opts
		opts.Checkpoints = nil
		opts.PolicyInstance = nil
		want, err := dwarn.Run(opts)
		if err != nil {
			h.problem("verify %s: serial recompute: %v", ref.label, err)
			continue
		}
		if g, w := got.CounterDigest(), want.CounterDigest(); g != w {
			h.problem("verify %s: counter digest %s, serial recompute %s", ref.label, g[:12], w[:12])
		}
	}
}

// Golden scenario: internal/sim/golden_digest_test.go pins these
// counter digests for every registered policy.
const (
	goldenWorkload = "4-MIX"
	goldenSeed     = 42
	goldenWarmup   = 3000
	goldenMeasure  = 10000
)

// checkGolden reruns the golden scenario through dwarn.Run and compares
// each policy's counter digest with internal/sim/testdata.
func checkGolden(root string) error {
	raw, err := os.ReadFile(filepath.Join(root, "internal", "sim", "testdata", "golden_digests.json"))
	if err != nil {
		return err
	}
	var want map[string]struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		return err
	}
	if len(want) == 0 {
		return fmt.Errorf("no golden digests")
	}
	wl, err := dwarn.Workload(goldenWorkload)
	if err != nil {
		return err
	}
	policies := make([]string, 0, len(want))
	for p := range want {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		res, err := dwarn.Run(dwarn.Options{Policy: p, Workload: wl, Seed: goldenSeed,
			WarmupCycles: goldenWarmup, MeasureCycles: goldenMeasure})
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if got := res.CounterDigest(); got != want[p].Digest {
			return fmt.Errorf("%s: digest %s, golden %s", p, got[:12], want[p].Digest[:12])
		}
	}
	return nil
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module dwarn.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			isRoot := false
			for sc.Scan() {
				if strings.TrimSpace(sc.Text()) == "module dwarn" {
					isRoot = true
					break
				}
			}
			f.Close()
			if isRoot {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module dwarn above the working directory")
		}
		dir = parent
	}
}

// gomaxprocs is the worker-pool size the CLIs default to.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
