// Package chaos is the fault-injection seam the durability layers
// (journal, stores, sweep submission) expose to tests and operational
// chaos drills. It is build-tag-free and nil-by-default: with no
// handler installed every Fire call is a no-op that costs one atomic
// load, so production binaries pay nothing for carrying the seam.
//
// A handler is a single function keyed by injection point names — the
// code under test declares the points ("journal.append",
// "sweep.journal.appended", "store.put" for every result and checkpoint
// put, with detail "result:<fp>" or "ckpt:<key>", ...), the test or
// drill decides what happens there: return an error the caller must absorb,
// return ErrTorn to make a write land half-finished, or terminate the
// process outright (the in-process equivalent of kill -9, which is how
// scripts/chaos_service.sh crashes dwarnd between journal append and
// executor submit).
package chaos

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Handler decides what happens at an injection point. point names the
// seam; detail carries the caller's identifying context (a sweep id, a
// fingerprint). A nil return lets execution continue normally.
type Handler func(point, detail string) error

// ErrInjected is the generic injected failure. Handlers that just want
// "this operation fails here" return it (or wrap it).
var ErrInjected = errors.New("chaos: injected fault")

// ErrTorn instructs a cooperating writer (journal.Append) to simulate a
// crash mid-write: persist a deliberately truncated record, skip the
// fsync, and report failure — the durable state a real power cut
// between write and sync leaves behind.
var ErrTorn = fmt.Errorf("%w: torn write", ErrInjected)

var handler atomic.Pointer[Handler]

// Set installs h as the process-wide handler; nil disarms the seam.
// Tests must Set(nil) (or use t.Cleanup) when done — the handler is
// global state shared with every other seam in the process.
func Set(h Handler) {
	if h == nil {
		handler.Store(nil)
		return
	}
	handler.Store(&h)
}

// Active reports whether a handler is installed.
func Active() bool { return handler.Load() != nil }

// Fire consults the handler at a named point. With no handler installed
// it returns nil.
func Fire(point, detail string) error {
	h := handler.Load()
	if h == nil {
		return nil
	}
	return (*h)(point, detail)
}

// FromEnv parses an operational chaos spec (the DWARN_CHAOS environment
// variable in cmd/dwarnd) into a handler, or nil for an empty spec.
// Grammar, comma-separated:
//
//	exit:POINT[:N]   kill the process (exit 137, like SIGKILL) on the
//	                 Nth time POINT fires (default N=1)
//	error:POINT[:N]  return ErrInjected from the Nth firing onward
//	torn:POINT[:N]   return ErrTorn from the Nth firing onward
//
// Example: DWARN_CHAOS=exit:sweep.journal.appended crashes dwarnd
// immediately after a sweep's submit record is durably journaled and
// before any cell reaches the executor — the worst-case crash point
// restart recovery must cover.
func FromEnv(spec string) (Handler, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	type rule struct {
		action string
		point  string
		n      int64
		hits   atomic.Int64
	}
	var rules []*rule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("chaos: bad rule %q (want action:point[:n])", part)
		}
		r := &rule{action: fields[0], point: fields[1], n: 1}
		switch r.action {
		case "exit", "error", "torn":
		default:
			return nil, fmt.Errorf("chaos: unknown action %q (want exit, error, or torn)", r.action)
		}
		if r.point == "" {
			return nil, fmt.Errorf("chaos: rule %q names no point", part)
		}
		if len(fields) == 3 {
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad hit count in %q", part)
			}
			r.n = n
		}
		rules = append(rules, r)
	}
	return func(point, detail string) error {
		for _, r := range rules {
			if r.point != point {
				continue
			}
			hits := r.hits.Add(1)
			switch r.action {
			case "exit":
				if hits == r.n {
					fmt.Fprintf(os.Stderr, "chaos: exit at %s (%s), hit %d\n", point, detail, hits)
					os.Exit(137)
				}
			case "error":
				if hits >= r.n {
					return fmt.Errorf("%w at %s (%s)", ErrInjected, point, detail)
				}
			case "torn":
				if hits >= r.n {
					return ErrTorn
				}
			}
		}
		return nil
	}, nil
}
