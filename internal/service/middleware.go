package service

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrSaturated reports load shedding: a submission refused because the
// corresponding backlog bound (runs waiting for an executor slot, the
// active-sweep cap) is already full. Mapped to 503 + Retry-After.
var ErrSaturated = errors.New("service: saturated")

// Admission control: every request (except the health and metrics
// probes) passes through admitHandler before reaching the API mux. In
// order: bearer-token auth (constant-time compare), per-client token
// bucket rate limiting (429 + Retry-After), load shedding for the
// expensive submission routes when the run queue or sweep admission
// bound is already saturated (503 + Retry-After, before any body is
// read), a request-body byte cap, and a server-wide handling deadline
// for non-streaming routes.

// retryAfterShed is the Retry-After hint on load-shed 503s: shed
// clients should back off for at least a queue-drain quantum rather
// than hot-loop on the saturated server.
const retryAfterShed = 1 * time.Second

// maxRateClients bounds the rate limiter's bucket map so a scan of
// spoofed source addresses cannot grow server memory without bound.
const maxRateClients = 4096

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a token-bucket-per-client limiter: each client key
// accrues opts.RateLimit tokens/sec up to a burst cap, and each
// request spends one.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(2*rate, 8)
	}
	return &rateLimiter{
		rate:    rate,
		burst:   b,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// allow spends one token from key's bucket. When the bucket is empty
// it reports how long until the next token accrues — the Retry-After
// the client sees.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	bk := l.buckets[key]
	if bk == nil {
		if len(l.buckets) >= maxRateClients {
			l.pruneLocked(now)
		}
		bk = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = bk
	} else {
		bk.tokens = math.Min(l.burst, bk.tokens+now.Sub(bk.last).Seconds()*l.rate)
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	return false, time.Duration((1 - bk.tokens) / l.rate * float64(time.Second))
}

// pruneLocked evicts buckets idle long enough to have refilled to
// capacity (their state is indistinguishable from a fresh bucket), and
// falls back to arbitrary eviction if a spoofing client defeated that.
func (l *rateLimiter) pruneLocked(now time.Time) {
	for k, bk := range l.buckets {
		if now.Sub(bk.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
	for k := range l.buckets {
		if len(l.buckets) < maxRateClients/2 {
			break
		}
		delete(l.buckets, k)
	}
}

// bearerToken extracts the Authorization bearer credential, or "".
func bearerToken(r *http.Request) string {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

// authorized checks the request's bearer token against the configured
// one. Both sides are hashed before the constant-time compare, so
// neither content nor length of the configured token leaks through
// timing.
func (s *Server) authorized(r *http.Request) bool {
	got := sha256.Sum256([]byte(bearerToken(r)))
	return subtle.ConstantTimeCompare(got[:], s.authHash[:]) == 1
}

// clientKey identifies a client for rate limiting: the bearer token
// when one is presented (so one credential shares one budget across
// source addresses), else the remote host.
func clientKey(r *http.Request) string {
	if tok := bearerToken(r); tok != "" {
		sum := sha256.Sum256([]byte(tok))
		return "tok:" + string(sum[:16])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// retryAfterHeader renders a wait as a whole-second Retry-After value,
// never less than 1 (a zero would invite an immediate retry).
func retryAfterHeader(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// streamingRoute reports routes that legitimately outlive any request
// deadline: the sweep SSE stream.
func streamingRoute(route string) bool {
	return route == "GET /v2/sweeps/{id}/events"
}

// admitHandler wraps the API mux with the admission-control chain. It
// sits inside obsHandler, so rejected requests still land in the HTTP
// metrics and access log with their 401/429/503 codes.
func (s *Server) admitHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := s.mux.Handler(r)

		// Probes stay open: operators and schedulers must be able to
		// observe an overloaded or misconfigured server.
		if route == "GET /healthz" || route == "GET /metrics" {
			s.mux.ServeHTTP(w, r)
			return
		}

		if s.opts.AuthToken != "" && !s.authorized(r) {
			s.metAuthFail.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="dwarnd"`)
			writeError(w, http.StatusUnauthorized, fmt.Errorf("service: missing or invalid bearer token"))
			return
		}

		if s.limiter != nil {
			if ok, wait := s.limiter.allow(clientKey(r)); !ok {
				s.metRateLimited.Inc()
				w.Header().Set("Retry-After", retryAfterHeader(wait))
				writeError(w, http.StatusTooManyRequests, fmt.Errorf("service: rate limit exceeded"))
				return
			}
		}

		// Load shedding: refuse the expensive submission routes before
		// reading a byte of body once the corresponding backlog bound is
		// already saturated — the work would only fail deeper in with the
		// request fully parsed, or queue unboundedly.
		switch route {
		case "POST /v2/runs":
			if s.queueLen() >= s.opts.QueueDepth {
				s.shed(w, fmt.Errorf("%w: job queue full", ErrSaturated))
				return
			}
		case "POST /v2/sweeps":
			if s.activeSweeps() >= s.opts.MaxActiveSweeps {
				s.shed(w, fmt.Errorf("%w: too many active sweeps (max %d)", ErrSaturated, s.opts.MaxActiveSweeps))
				return
			}
		}

		// Bound every body read. The JSON routes re-wrap via decode with
		// the same cap (harmless); the trace upload keeps its own larger
		// bound, enforced again byte-exactly in the handler.
		if r.Body != nil {
			limit := s.opts.MaxBodyBytes
			if route == "POST /v2/traces" {
				limit = maxTraceBytes
			}
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}

		if t := s.opts.RequestTimeout; t > 0 && !streamingRoute(route) {
			ctx, cancel := context.WithTimeout(r.Context(), t)
			defer cancel()
			r = r.WithContext(ctx)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// shed writes a load-shedding 503 with a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, err error) {
	s.metShed.Inc()
	w.Header().Set("Retry-After", retryAfterHeader(retryAfterShed))
	writeError(w, http.StatusServiceUnavailable, err)
}
