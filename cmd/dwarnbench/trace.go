package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// The traced run measures each layer from outside: spans around the
// harness's own calls into public functions, timing decorators over the
// public exec.Store, ckpt.Store and exec.RunFunc seams, scrapes of the
// metrics registries, and a CPU profile grouped by layer.

// span is one timed interval. Spans of one op share a trace id; a span
// whose caller cannot be attributed to an op (server-side store calls
// under two concurrent clients) has an empty trace.
type span struct {
	Trace  string `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanRef names a span that children can attach to.
type spanRef struct {
	trace  string
	id     uint64
	parent uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64
	// cur is the op in flight, for single-client workloads whose
	// store decorators get no context.
	cur atomic.Pointer[spanRef]

	mu     sync.Mutex
	spans  []span
	counts map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int{}} }

// reset drops everything recorded so far and restarts the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.t0 = time.Now()
	t.spans = nil
	t.counts = map[string]int{}
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// reserve allocates a span id under parent, to be finished later.
func (t *tracer) reserve(trace string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	if trace == "" {
		trace = parent.trace
	}
	return spanRef{trace: trace, id: t.ids.Add(1), parent: parent.id}
}

// finish records a reserved span.
func (t *tracer) finish(ref spanRef, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Trace: ref.trace, ID: ref.id, Parent: ref.parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished child span of parent.
func (t *tracer) add(parent spanRef, name string, start, end time.Time) spanRef {
	ref := t.reserve("", parent)
	t.finish(ref, name, start, end)
	return ref
}

func (t *tracer) setCurrent(ref spanRef) {
	if t != nil {
		t.cur.Store(&ref)
	}
}

// current is the op in flight of a single-client workload.
func (t *tracer) current() spanRef {
	if t == nil {
		return spanRef{}
	}
	if p := t.cur.Load(); p != nil {
		return *p
	}
	return spanRef{}
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// durations returns every span's duration in ms, keyed by span name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeSpans appends the spans to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedResults times every call into an exec.Store.
type timedResults struct {
	inner exec.Store
	tr    *tracer
}

func (s timedResults) Get(fp string) (*sim.Result, bool) {
	t0 := time.Now()
	res, ok := s.inner.Get(fp)
	s.tr.add(s.tr.current(), "store.get", t0, time.Now())
	return res, ok
}

func (s timedResults) Put(fp string, res *sim.Result) {
	t0 := time.Now()
	s.inner.Put(fp, res)
	s.tr.add(s.tr.current(), "store.put", t0, time.Now())
}

// timedCkpts times every call into a ckpt.Store.
type timedCkpts struct {
	inner ckpt.Store
	tr    *tracer
}

func (s timedCkpts) Get(key string) (*ckpt.Image, bool) {
	t0 := time.Now()
	img, ok := s.inner.Get(key)
	s.tr.add(s.tr.current(), "ckpt.get", t0, time.Now())
	return img, ok
}

func (s timedCkpts) Put(key string, img *ckpt.Image) {
	t0 := time.Now()
	s.inner.Put(key, img)
	s.tr.add(s.tr.current(), "ckpt.put", t0, time.Now())
}

// timedRun is an exec.RunFunc that times each cell's simulation. Like
// the service's own RunFunc it threads the executor's gated checkpoint
// store into the run, so traced cells still fork.
func timedRun(tr *tracer, ex **exec.Executor) exec.RunFunc {
	return func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		opts := res.Options
		opts.Checkpoints = (*ex).CheckpointStore()
		t0 := time.Now()
		r, err := sim.RunContext(ctx, opts)
		tr.add(spanFrom(ctx), "exec.run", t0, time.Now())
		return r, err
	}
}

// scrape reads every series of the given registries.
func scrape(regs ...*obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	for _, r := range regs {
		if r == nil {
			continue
		}
		if err := r.WritePrometheus(&buf); err != nil {
			return nil, err
		}
	}
	return obs.ParseText(&buf)
}

// scrapeDelta is the change of every series between two scrapes.
type scrapeDelta map[string]float64

func diffScrapes(before, after map[string]float64) scrapeDelta {
	d := scrapeDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of a family (all label sets), or only those
// whose label block contains match.
func (d scrapeDelta) sum(family, match string) float64 {
	var s float64
	for k, v := range d {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, match) {
			s += v
		}
	}
	return s
}

// profile is a CPU profile of the traced phase.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// goTool finds the go command that built this toolchain, falling back
// to PATH.
func goTool() string {
	g := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(g); err == nil {
		return g
	}
	return "go"
}

// cpuSharesOf groups a CPU profile's samples into the cpu.* buckets,
// in percent of all samples. It reads every sampled stack with `go tool
// pprof -traces`, which ships with the toolchain.
func cpuSharesOf(path string) (map[string]float64, error) {
	out, err := osexec.Command(goTool(), "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return sharesFromTraces(bytes.NewReader(out))
}

// sharesFromTraces parses `pprof -traces` output: blocks separated by
// dashed lines, each a sample value followed by its stack, leaf first.
func sharesFromTraces(r io.Reader) (map[string]float64, error) {
	byBucket := map[string]float64{}
	var total float64
	var stack []string
	var value float64
	flush := func() {
		if b := classifyStack(stack); b != "" {
			byBucket[b] += value
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && value == 0 {
			v, ok := parseDuration(fields[0])
			if !ok || len(fields) < 2 {
				continue
			}
			value = v
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, name := range cpuShares {
		if total > 0 {
			shares[name] = 100 * byBucket[name] / total
		} else {
			shares[name] = 0
		}
	}
	return shares, nil
}

// parseDuration reads pprof's scaled durations ("10ms", "1.20s").
func parseDuration(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"mins", 60}, {"hrs", 3600}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				continue
			}
			return v * u.scale, true
		}
	}
	return 0, false
}

// Stage functions of internal/pipeline, by bucket. Other pipeline
// frames (deque, bitset and arena helpers) belong to the stage that
// called them; the Step/Run loop itself is cpu.pipeline.other.
var pipelineStages = func() map[string]string {
	m := map[string]string{}
	for stage, fns := range map[string][]string{
		"fetch":    {"(*CPU).fetch", "(*CPU).fetchFrom", "(*CPU).attributeGates", "(*thread).peek", "(*thread).consume", "(*thread).dropPeek"},
		"dispatch": {"(*CPU).dispatch", "(*CPU).dispatchOne", "(*CPU).lookupMap", "(*CPU).allocReg"},
		"issue":    {"(*CPU).issue", "(*CPU).issueOne", "(*CPU).regReady"},
		"events": {"(*CPU).processEvents", "(*CPU).complete", "(*CPU).loadAccess", "(*CPU).resolveBranch",
			"(*CPU).schedule", "(*CPU).setRegReady", "(*eventQueue).schedule", "(*eventQueue).bucketFor", "(*eventQueue).advance"},
		"commit": {"(*CPU).commit", "(*CPU).retire", "(*CPU).freeReg"},
		"squash": {"(*CPU).FlushAfter", "(*CPU).squashYounger", "(*CPU).squashInFlight", "sortUopsBySeq"},
	} {
		for _, fn := range fns {
			m[fn] = stage
		}
	}
	return m
}()

const pipelinePkg = "dwarn/internal/pipeline."

// classifyStack assigns one sampled stack (leaf first) to a cpu.*
// bucket, or to none ("") for an empty stack or the harness's
// reference kernel, which is not the system's work. Garbage collection
// and generator construction are recognised anywhere in the stack;
// otherwise the innermost frame that names a layer wins, so a runtime
// helper (memmove, malloc) is charged to the layer that called it.
func classifyStack(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main.(*hostRef)"):
			return ""
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
			fn == "runtime.gcStart", fn == "runtime.GC":
			return "cpu.runtime.gc"
		case strings.HasPrefix(fn, "dwarn/internal/workload.buildCore"):
			return "cpu.workload.build"
		}
	}
	for i, fn := range stack {
		if strings.HasPrefix(fn, pipelinePkg) {
			for _, up := range stack[i:] {
				if !strings.HasPrefix(up, pipelinePkg) {
					break
				}
				if st, ok := pipelineStages[strings.TrimPrefix(up, pipelinePkg)]; ok {
					return "cpu.pipeline." + st
				}
			}
			return "cpu.pipeline.other"
		}
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return "cpu.other"
}

// frameBucket maps one frame to its layer, or "" when the frame is a
// helper that belongs to its caller.
func frameBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "cpu.json"
	case strings.HasPrefix(fn, "os.(*File).Sync"), strings.HasPrefix(fn, "os.(*File).Write"),
		strings.HasPrefix(fn, "os.(*File).Read"), strings.HasPrefix(fn, "os.ReadFile"),
		strings.HasPrefix(fn, "os.WriteFile"), strings.HasPrefix(fn, "os.Rename"),
		strings.HasPrefix(fn, "os.CreateTemp"), strings.HasPrefix(fn, "os.OpenFile"),
		strings.HasPrefix(fn, "os.Remove"), strings.HasPrefix(fn, "dwarn/internal/journal."),
		strings.HasPrefix(fn, "dwarn/internal/exec.(*DirStore)"):
		return "cpu.io"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "net/textproto."), strings.HasPrefix(fn, "net/url."):
		return "cpu.http"
	case strings.HasPrefix(fn, "dwarn/internal/core."):
		return "cpu.core.policy"
	case strings.HasPrefix(fn, "dwarn/internal/mem/"):
		return "cpu.mem"
	case strings.HasPrefix(fn, "dwarn/internal/bpred."):
		return "cpu.bpred"
	case strings.HasPrefix(fn, "dwarn/internal/workload."), strings.HasPrefix(fn, "dwarn/internal/rng."),
		strings.HasPrefix(fn, "dwarn/internal/isa."):
		return "cpu.workload.stream"
	case strings.HasPrefix(fn, "dwarn/internal/sim."):
		return "cpu.sim"
	case strings.HasPrefix(fn, "dwarn/internal/ckpt."):
		return "cpu.ckpt"
	case strings.HasPrefix(fn, "dwarn/internal/exec."), strings.HasPrefix(fn, "dwarn/internal/spec."):
		return "cpu.exec"
	case strings.HasPrefix(fn, "dwarn/internal/service."):
		return "cpu.service"
	case strings.HasPrefix(fn, "dwarn/internal/"), strings.HasPrefix(fn, "main."),
		strings.HasPrefix(fn, "dwarn/cmd/dwarnbench."), strings.HasPrefix(fn, "dwarn."):
		return "cpu.other"
	}
	return ""
}

// journalProbe appends n records to a scratch journal in dir and
// returns each append's latency in ms. *journal.Journal is a concrete
// type the service holds privately, so its fsync cost is measured
// beside it rather than through it.
func journalProbe(dir string, n int) ([]float64, error) {
	path := filepath.Join(dir, "probe-journal.log")
	j, _, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, n)
	for i := range n {
		rec := journal.Record{Type: journal.TypeCell, ID: "sweep-probe", Fingerprint: fmt.Sprintf("%064x", i)}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return lat, os.Remove(path)
}
