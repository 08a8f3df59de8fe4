// Package obs is the repo's zero-dependency observability core: counter,
// gauge, and histogram metrics with atomic hot paths, a named Registry
// with Prometheus text-format exposition, and a leveled structured
// logger (logger.go). Every layer — the cycle engine's end-of-run
// snapshot, the sweep executor, the dwarnd service, and the CLIs —
// instruments through this one package, so a metric means the same
// thing whether it is scraped from `GET /metrics` or dumped by
// `smtsim -metrics`.
//
// Naming convention (see DESIGN.md §Observability): every series is
// prefixed `dwarn_<layer>_`, counters end in `_total`, histograms and
// durations are in seconds. Label cardinality is bounded by
// construction — policy names, route patterns, status codes, and cell
// states only.
//
// Hot-path guarantee: Counter.Inc/Add, Gauge.Set/Add, and
// Histogram.Observe never allocate and never take a lock (guarded by
// TestMetricsHotPathZeroAlloc). Registration (Registry.Counter etc.) is
// GetOrCreate under a mutex and belongs at setup time or on cold paths.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a series. Series identity
// is the metric name plus the sorted label set.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is
// usable but unregistered; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets and
// tracks their sum — the Prometheus cumulative-histogram model. Bounds
// are strictly increasing; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets covers HTTP request latencies (5ms–10s).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// RunBuckets covers simulation wall times (1ms–30s) — one simulated
// cell or run at the repo's default protocols lands mid-range.
var RunBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// CellBuckets covers one sweep cell's wall time, tuned to observed
// durations (about 8ms per cell at the default protocol):
// fine-grained 1–32ms where the distribution actually lives, then
// doubling out to 4s for long-protocol cells, so per-policy latency
// shifts show up as bucket movement instead of all cells piling into
// one coarse bucket.
var CellBuckets = []float64{.001, .002, .004, .006, .008, .012, .016, .024, .032, .064, .125, .25, .5, 1, 2, 4}

// Observe records one value. Alloc-free and lock-free: a linear scan
// over the (small, fixed) bound slice plus three atomic updates.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind discriminates series payloads.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) typeName() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) instance.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one metric name with its help text, type, and series.
type family struct {
	name, help string
	kind       metricKind
	order      []string // series label suffixes, registration order
	series     map[string]*series
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration is GetOrCreate: asking for an
// existing (name, labels) series returns the same handle, so layers
// that share a process share the underlying counters. Registering one
// name with two different kinds or help strings panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	order    []string // family names, registration order
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry: the engine's end-of-run
// snapshot and the CLIs record here; dwarnd merges it into every
// /metrics scrape alongside the server's own registry.
var Default = NewRegistry()

// renderLabels builds the canonical `{k="v",...}` suffix. Labels are
// sorted by key so the same set always names the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	needs := false
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// lookup returns an existing series or nil, read-locked.
func (r *Registry) lookup(name, labels string, kind metricKind) *series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return nil
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind.typeName(), kind.typeName()))
	}
	return f.series[labels]
}

// register finds or creates a series under the write lock. build is
// called only when the series is new.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func() *series) *series {
	suffix := renderLabels(labels)
	if s := r.lookup(name, suffix, kind); s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind.typeName(), kind.typeName()))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q registered with different help text", name))
	}
	if s, ok := f.series[suffix]; ok {
		return s
	}
	s := build()
	s.labels = suffix
	f.series[suffix] = s
	f.order = append(f.order, suffix)
	return s
}

// Counter returns the counter for (name, labels), creating it if new.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, func() *series {
		return &series{c: &Counter{}}
	}).c
}

// Gauge returns the gauge for (name, labels), creating it if new.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, func() *series {
		return &series{g: &Gauge{}}
	}).g
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (nil = DefBuckets), creating it if new. Bounds
// are fixed at first registration; later calls reuse them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, func() *series {
		if bounds == nil {
			bounds = DefBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		return &series{h: &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}}
	}).h
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// exposition time — the right shape for values another component
// already owns (queue depth, active sweeps, cache entries). Re-
// registering an existing series replaces its fn, so a restarted
// component re-binds the series to its live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGaugeFunc, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// CounterFunc is GaugeFunc for monotonically increasing values owned
// elsewhere (the service cache's hit/miss totals). fn must never
// decrease between calls.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounterFunc, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}
