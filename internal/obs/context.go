package obs

import "context"

// Request-scoped trace context. The service middleware mints (or
// honors) an X-Request-ID per HTTP request and stashes it here; the
// execution layer derives a span per sweep cell; the simulator logs
// both. One ID then follows a request from HTTP submit through the
// executor into the cycle-loop run logs, across the goroutine and
// queue hops in between — as long as every hop forwards (or
// explicitly re-attaches) the context values.

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
	loggerKey
)

// WithTrace returns ctx carrying the request-scoped trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// TraceID returns ctx's trace ID, or "" when none is attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey).(string)
	return id
}

// WithSpan returns ctx carrying a span ID — one unit of work under a
// trace (the executor uses a fingerprint prefix per cell).
func WithSpan(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, spanKey, id)
}

// CellSpan is a sweep cell's span: the first 12 hex characters of its
// fingerprint, the short form sweep status pages print.
func CellSpan(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// SpanID returns ctx's span ID, or "" when none is attached.
func SpanID(ctx context.Context) string {
	id, _ := ctx.Value(spanKey).(string)
	return id
}

// WithLogger returns ctx carrying a logger for layers reached only
// through context (the simulator's run logs).
func WithLogger(ctx context.Context, l *Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// LoggerFrom returns ctx's logger, or a Nop logger when none is
// attached — callers log unconditionally and the default discards.
func LoggerFrom(ctx context.Context) *Logger {
	if l, ok := ctx.Value(loggerKey).(*Logger); ok && l != nil {
		return l
	}
	return Nop()
}
