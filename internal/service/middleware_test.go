package service

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dwarn/internal/spec"
)

// ---- rate limiter unit tests ----

func TestRateLimiterRefillAndRetryAfter(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 req/s, burst 2
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.allow("a")
	if ok {
		t.Fatal("empty bucket allowed a request")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("Retry-After wait = %v, want (0, 1s] at 2 req/s", wait)
	}

	// A different client has its own budget.
	if ok, _ := l.allow("b"); !ok {
		t.Fatal("independent client denied")
	}

	// Half a second refills one token at 2 req/s.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("second request after single-token refill allowed")
	}
}

func TestRateLimiterBoundsClientMap(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxRateClients+100; i++ {
		l.allow("client-" + strconv.Itoa(i))
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxRateClients {
		t.Fatalf("bucket map grew to %d (bound %d)", n, maxRateClients)
	}
}

func TestNewRateLimiterDisabled(t *testing.T) {
	if l := newRateLimiter(0, 10); l != nil {
		t.Fatal("rate 0 built a limiter")
	}
}

func TestBearerToken(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	if got := bearerToken(r); got != "" {
		t.Fatalf("no header: %q", got)
	}
	r.Header.Set("Authorization", "Bearer s3cret")
	if got := bearerToken(r); got != "s3cret" {
		t.Fatalf("got %q", got)
	}
	r.Header.Set("Authorization", "bearer lower")
	if got := bearerToken(r); got != "lower" {
		t.Fatalf("case-insensitive scheme: %q", got)
	}
	r.Header.Set("Authorization", "Basic dXNlcg==")
	if got := bearerToken(r); got != "" {
		t.Fatalf("non-bearer scheme: %q", got)
	}
}

func TestRetryAfterHeader(t *testing.T) {
	if got := retryAfterHeader(0); got != "1" {
		t.Fatalf("zero wait: %q", got)
	}
	if got := retryAfterHeader(1500 * time.Millisecond); got != "2" {
		t.Fatalf("1.5s wait: %q", got)
	}
}

// ---- HTTP status matrix: 401 / 429 / 503 ----

func doGet(t *testing.T, ts *httptest.Server, path, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestAuthMatrix(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, AuthToken: "hunter2"})

	// Probes stay open without credentials.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := doGet(t, ts, path, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without token: %d", path, resp.StatusCode)
		}
	}

	// API routes: no token and wrong token get 401 + WWW-Authenticate.
	for _, token := range []string{"", "wrong", "hunter"} {
		resp := doGet(t, ts, "/v2/policies", token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401", token, resp.StatusCode)
		}
		if !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Bearer") {
			t.Fatalf("token %q: missing WWW-Authenticate", token)
		}
	}
	if resp := doGet(t, ts, "/v2/policies", "hunter2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token rejected: %d", resp.StatusCode)
	}
	if got := srv.metAuthFail.Value(); got != 3 {
		t.Fatalf("auth-failure counter = %d, want 3", got)
	}
}

func TestRateLimitMatrix(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, RateLimit: 1, RateBurst: 2})

	// Probes are exempt even under rate limiting... but they share no
	// budget anyway; hit the API until the burst is spent.
	limited := 0
	var last *http.Response
	for i := 0; i < 5; i++ {
		last = doGet(t, ts, "/v2/policies", "")
		if last.StatusCode == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("burst 2 never produced a 429 in 5 requests")
	}
	if ra := last.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q", ra)
	}
	if srv.metRateLimited.Value() == 0 {
		t.Fatal("rate-limited counter did not move")
	}

	// Probes never count against (or get caught by) the limiter.
	for i := 0; i < 10; i++ {
		if resp := doGet(t, ts, "/healthz", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz under rate limit: %d", resp.StatusCode)
		}
	}
}

func TestLoadShedMatrix(t *testing.T) {
	srv, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, MaxActiveSweeps: 1, MaxCycles: 500_000_000,
	})
	long := longRun("icount", "8-MEM")
	running := submitRun(t, ts, long)
	waitJob(t, ts, running.ID, StateRunning)
	queued := long
	queued.Seed = 2
	submitRun(t, ts, queued)

	// Queue full: the middleware sheds before reading the body.
	rejected := long
	rejected.Seed = 3
	resp, raw := postJSON(t, ts, "/v2/runs", rejected)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if srv.metShed.Value() == 0 {
		t.Fatal("load-shed counter did not move")
	}

	// Sweep bound: one active sweep saturates MaxActiveSweeps=1.
	sweepReq := spec.SweepSpec{
		Policies: []spec.PolicyAxis{{Name: "icount"}}, Workloads: []spec.Workload{{Name: "8-MEM"}},
		Seeds: []uint64{10}, WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	}
	st := postSweep(t, ts, sweepReq)
	over := sweepReq
	over.Seeds = []uint64{11}
	resp, _ = postJSON(t, ts, "/v2/sweeps", over)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap sweep: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("sweep shed 503 without Retry-After")
	}

	// Drain for fast cleanup.
	deleteStatus(t, ts, "/v2/sweeps/"+st.ID)
}

// TestAdmissionRouteLiteralsAreRegistered: admitHandler and
// streamingRoute compare the mux's matched pattern against string
// literals. A literal naming no registered pattern never matches, which
// silently turns off shedding, the trace body bound, the probe bypass
// or the deadline exemption — so every route literal in those two
// functions must resolve to itself, and every path-prefix literal must
// prefix a registered pattern.
func TestAdmissionRouteLiteralsAreRegistered(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	f, err := parser.ParseFile(token.NewFileSet(), "middleware.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var routes, prefixes []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || (fn.Name.Name != "admitHandler" && fn.Name.Name != "streamingRoute") {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			v, _ := strconv.Unquote(lit.Value)
			if method, path, ok := strings.Cut(v, " "); ok && method != "" && method == strings.ToUpper(method) && strings.HasPrefix(path, "/") {
				routes = append(routes, v)
			} else if strings.HasPrefix(v, "/") {
				prefixes = append(prefixes, v)
			}
			return true
		})
	}
	// The probes, both shed routes, the trace upload and the SSE stream.
	if len(routes) < 6 {
		t.Fatalf("found routes %q and prefixes %q in middleware.go; the parse lost some", routes, prefixes)
	}
	wildcard := regexp.MustCompile(`\{[^}]+\}`)
	for _, route := range routes {
		method, path, _ := strings.Cut(route, " ")
		req := httptest.NewRequest(method, wildcard.ReplaceAllString(path, "x"), nil)
		if _, pattern := srv.mux.Handler(req); pattern != route {
			t.Errorf("middleware literal %q matches mux pattern %q", route, pattern)
		}
	}
	for _, prefix := range prefixes {
		req := httptest.NewRequest(http.MethodGet, prefix, nil)
		if _, pattern := srv.mux.Handler(req); !strings.Contains(pattern, " "+prefix) {
			t.Errorf("middleware path prefix %q prefixes no mux pattern (got %q)", prefix, pattern)
		}
	}
}

// TestTraceUploadUsesTraceBodyBound: a trace larger than MaxBodyBytes
// but within MaxTraceBytes uploads, because the trace route carries its
// own body bound; the same bytes on a JSON route hit MaxBodyBytes.
func TestTraceUploadUsesTraceBodyBound(t *testing.T) {
	const bodyCap = 1 << 10
	_, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: bodyCap})
	raw := recordTestTrace(t, "2-ILP", 1, 2000)
	if len(raw) <= bodyCap {
		t.Fatalf("test trace is %d bytes, want more than MaxBodyBytes=%d", len(raw), bodyCap)
	}
	if _, resp := uploadTrace(t, ts, raw); resp.StatusCode != http.StatusCreated {
		t.Fatalf("trace of %d bytes under MaxBodyBytes=%d: status %d, want 201", len(raw), bodyCap, resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v2/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-byte body on /v2/runs: status %d, want 400", len(raw), resp.StatusCode)
	}
}
