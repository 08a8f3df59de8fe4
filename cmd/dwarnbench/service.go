package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/service"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// pollInterval is how long a service-runs client waits between status
// polls of a queued or running job.
const pollInterval = 2 * time.Millisecond

// opTimeout bounds one service op, so a wedged server fails the op
// instead of the whole run.
const opTimeout = 60 * time.Second

// serviceEnv is an in-process dwarnd configured as `dwarnd -store DIR`
// configures it — DirStore results, a memory-over-disk checkpoint
// chain, a submission journal under DIR — without the fabric, and
// served over a real HTTP listener.
type serviceEnv struct {
	h      *harness
	tr     *tracer
	sweeps bool // service-sweeps; otherwise service-runs

	srv     *service.Server
	ts      *httptest.Server
	client  *http.Client
	results *exec.DirStore // the durable result tier, read back for verification

	// Per client: what it has completed, for the repeat ops.
	runs       [][]runEntry
	doneSweeps [][]sweepEntry
}

type runEntry struct {
	body []byte
	fp   string
	// result is the SHA-256 of the result the cold op got back; a
	// cache-served repeat must return the same bytes.
	result [sha256.Size]byte
}

type sweepEntry struct {
	body []byte
	fps  []string
}

func newServiceEnv(h *harness, tr *tracer, dir string, sweeps bool) (*serviceEnv, error) {
	ds, err := exec.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	cds, err := ckpt.NewDirStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	j, recs, err := journal.Open(filepath.Join(dir, "journal.log"))
	if err != nil {
		return nil, err
	}
	var store exec.Store = ds
	var ckpts ckpt.Store = ckpt.Chain{ckpt.NewMemStore(0), cds}
	if tr != nil {
		store = timedResults{inner: store, tr: tr}
		ckpts = timedCkpts{inner: ckpts, tr: tr}
	}
	// The remaining values are dwarnd's flag defaults. Access logs are
	// formatted as dwarnd formats them, then discarded.
	srv := service.New(service.Options{
		Workers:         gomaxprocs(),
		QueueDepth:      256,
		CacheEntries:    4096,
		MaxCycles:       5_000_000,
		MaxSweepCells:   1024,
		MaxActiveSweeps: 16,
		RequestTimeout:  30 * time.Second,
		Logger:          obs.NewLogger(io.Discard, obs.LevelInfo),
		Store:           store,
		Checkpoints:     ckpts,
		Journal:         j,
		Recovered:       recs,
	})
	n := h.w.clients
	return &serviceEnv{
		h: h, tr: tr, sweeps: sweeps,
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
		}},
		results:    ds,
		runs:       make([][]runEntry, n),
		doneSweeps: make([][]sweepEntry, n),
	}, nil
}

func (e *serviceEnv) registry() *obs.Registry { return e.srv.Registry() }

func (e *serviceEnv) close() error {
	e.ts.Close()
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

func (e *serviceEnv) op(ctx context.Context, o opID) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if e.sweeps {
		return e.sweepOp(ctx, o)
	}
	return e.runOp(ctx, o)
}

// pick chooses one of n earlier entries for a repeat op.
func (e *serviceEnv) pick(tag string, o opID, n int) int {
	return int(e.h.seedFor(tag, o.client, o.k) % uint64(n))
}

// do sends one request and decodes a 2xx JSON body into out.
func (e *serviceEnv) do(ctx context.Context, method, route, path string, body []byte, out any) error {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e.tr.add(spanFrom(ctx), "http."+route, t0, time.Now())
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// runOp is one POST /v2/runs through to a terminal state. Every 4th op
// (and each warm-up op) submits a fresh 2-MIX spec, the policy
// rotating; the others re-submit a spec this client already completed,
// which the result cache serves at submit.
func (e *serviceEnv) runOp(ctx context.Context, o opID) (string, error) {
	c := o.client
	cold := o.warm() || o.local%4 == 0 || len(e.runs[c]) == 0
	var entry runEntry
	var opts sim.Options
	var pol string
	if cold {
		pol = paperPolicies[0]
		var seed uint64
		if o.warm() {
			seed = warmSeed("runs", c, -o.k)
		} else {
			pol = paperPolicies[(o.k/4)%len(paperPolicies)]
			seed = e.h.seedFor("runs", c, o.k)
		}
		rs := spec.RunSpec{Policy: spec.Policy{Name: pol}, Workload: spec.Workload{Name: "2-MIX"},
			Seed: seed, WarmupCycles: shortWarmup, MeasureCycles: shortMeasure}
		res, err := resolve(ctx, e.tr, rs)
		if err != nil {
			return "cold", err
		}
		body, err := json.Marshal(rs)
		if err != nil {
			return "cold", err
		}
		entry = runEntry{body: body, fp: res.Fingerprint}
		opts = res.Options
	} else {
		entry = e.runs[c][e.pick("runs-hot", o, len(e.runs[c]))]
	}
	kind := "hot"
	if cold {
		kind = "cold"
	}

	var acc service.RunAccepted
	if err := e.do(ctx, http.MethodPost, "post_runs", "/v2/runs", entry.body, &acc); err != nil {
		return kind, err
	}
	if acc.Fingerprint != entry.fp {
		return kind, fmt.Errorf("fingerprint %s, spec resolves to %s", acc.Fingerprint, entry.fp)
	}
	view := acc.JobView
	polls := 0
	for !terminalState(view.State) {
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			return kind, ctx.Err()
		}
		if err := e.do(ctx, http.MethodGet, "get_run", "/v2/runs/"+view.ID, nil, &view); err != nil {
			return kind, err
		}
		polls++
	}
	seen := time.Now()
	if view.State != service.StateDone {
		return kind, fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
	}
	if !cold {
		if sha256.Sum256(view.Result) != entry.result {
			return kind, fmt.Errorf("job %s: cached result differs from the one this client computed", view.ID)
		}
		return kind, nil
	}
	if e.tr != nil && view.StartedAt != nil && view.FinishedAt != nil {
		parent := spanFrom(ctx)
		e.tr.add(parent, "job.queue", view.SubmittedAt, *view.StartedAt)
		e.tr.add(parent, "job.run", *view.StartedAt, *view.FinishedAt)
		e.tr.add(parent, "poll.overshoot", *view.FinishedAt, seen)
		e.tr.count("polls", polls)
	}
	entry.result = sha256.Sum256(view.Result)
	e.runs[c] = append(e.runs[c], entry)
	raw := view.Result
	e.h.record(o, resultRef{
		label: fmt.Sprintf("run %s %s/%d", view.ID, pol, opts.Seed), opts: opts, policy: pol,
		group: group(opts.Workload.Name, opts.Seed),
		get: func() (*sim.Result, error) {
			var sr service.SimulationResult
			if err := json.Unmarshal(raw, &sr); err != nil {
				return nil, err
			}
			return sr.Result, nil
		},
	})
	return kind, nil
}

func terminalState(s string) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCanceled
}

// sweepOp is one POST /v2/sweeps followed by its SSE event stream read
// to the end frame. Fresh sweeps run the six paper policies on one
// workload (rotating over shortWorkloads) at a fresh seed; every 4th op
// re-submits a sweep this client already finished, which the store
// precheck completes at submit.
func (e *serviceEnv) sweepOp(ctx context.Context, o opID) (string, error) {
	c := o.client
	repeat := !o.warm() && o.local%4 == 3 && len(e.doneSweeps[c]) > 0
	kind := "fresh"
	var entry sweepEntry
	var cells []*spec.Resolved
	var seed uint64
	if repeat {
		kind = "repeat"
		entry = e.doneSweeps[c][e.pick("sweeps-repeat", o, len(e.doneSweeps[c]))]
	} else {
		wl := shortWorkloads[0]
		if o.warm() {
			seed = warmSeed("sweeps", c, -o.k)
		} else {
			wl = shortWorkloads[o.k%len(shortWorkloads)]
			seed = e.h.seedFor("sweeps", c, o.k)
		}
		ss := spec.SweepSpec{Workloads: []spec.Workload{{Name: wl}}, Seeds: []uint64{seed},
			WarmupCycles: shortWarmup, MeasureCycles: shortMeasure}
		runs, err := ss.Expand(0)
		if err != nil {
			return kind, err
		}
		for _, rs := range runs {
			res, err := resolve(ctx, e.tr, rs)
			if err != nil {
				return kind, err
			}
			cells = append(cells, res)
			entry.fps = append(entry.fps, res.Fingerprint)
		}
		if entry.body, err = json.Marshal(ss); err != nil {
			return kind, err
		}
	}

	t0 := time.Now()
	var st service.SweepStatus
	if err := e.do(ctx, http.MethodPost, "post_sweeps", "/v2/sweeps", entry.body, &st); err != nil {
		return kind, err
	}
	end, err := e.followSweep(ctx, st.ID, t0)
	if err != nil {
		return kind, err
	}
	if end.State != service.StateDone || len(end.Cells) != len(entry.fps) {
		return kind, fmt.Errorf("sweep %s ended %s with %d/%d cells done", end.ID, end.State, end.Done, len(entry.fps))
	}
	for i, cell := range end.Cells {
		if cell.Fingerprint != entry.fps[i] || cell.State != service.StateDone || cell.Throughput == nil {
			return kind, fmt.Errorf("sweep %s cell %d: %s %s, want done %s", end.ID, i, cell.State, cell.Fingerprint, entry.fps[i])
		}
		if repeat && !cell.Cached {
			return kind, fmt.Errorf("sweep %s cell %d: repeat cell not served from the store", end.ID, i)
		}
	}
	if repeat {
		return kind, nil
	}
	e.doneSweeps[c] = append(e.doneSweeps[c], entry)
	refs := make([]resultRef, len(cells))
	for i, res := range cells {
		fp := res.Fingerprint
		refs[i] = resultRef{
			label:      fmt.Sprintf("sweep %s cell %d", end.ID, i),
			opts:       res.Options,
			policy:     res.Spec.Policy.Name,
			group:      group(res.Options.Workload.Name, seed),
			throughput: end.Cells[i].Throughput,
			get: func() (*sim.Result, error) {
				r, ok := e.results.Get(fp)
				if !ok {
					return nil, fmt.Errorf("fingerprint %s not in the durable store", fp)
				}
				return r, nil
			},
		}
	}
	e.h.record(o, refs...)
	return kind, nil
}

// followSweep reads a sweep's SSE stream until its end frame and
// returns the final status. A stream that closes before the end frame
// is an error.
func (e *serviceEnv) followSweep(ctx context.Context, id string, submitted time.Time) (*service.SweepStatus, error) {
	parent := spanFrom(ctx)
	streamRef := e.tr.reserve("", parent)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+"/v2/sweeps/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET events %s: %s: %s", id, resp.Status, bytes.TrimSpace(raw))
	}
	br := bufio.NewReader(resp.Body)
	var event, data string
	last, firstCell := t0, false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("sweep %s: event stream ended without an end frame", id)
			}
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && event != "":
			now := time.Now()
			e.tr.add(streamRef, "sse."+event, last, now)
			last = now
			switch event {
			case "cell":
				if !firstCell && isTerminalCellEvent(data) {
					firstCell = true
					e.tr.add(parent, "sse.first_cell", submitted, now)
				}
			case "end":
				var st service.SweepStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return nil, err
				}
				_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
				e.tr.finish(streamRef, "http.sweep_events", t0, time.Now())
				return &st, nil
			}
			event, data = "", ""
		}
	}
}

// isTerminalCellEvent reports whether an SSE cell payload finishes its
// cell (anything but "started").
func isTerminalCellEvent(data string) bool {
	var ev struct {
		State string `json:"state"`
	}
	return json.Unmarshal([]byte(data), &ev) == nil && ev.State != exec.CellStarted
}
