package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// countingCkptStore counts publishes: each Put is one cold warmup that
// produced a checkpoint.
type countingCkptStore struct {
	inner ckpt.Store
	puts  atomic.Int64
}

func (s *countingCkptStore) Get(key string) (*ckpt.Image, bool) { return s.inner.Get(key) }
func (s *countingCkptStore) Put(key string, img *ckpt.Image) {
	s.puts.Add(1)
	s.inner.Put(key, img)
}

// TestOneWarmupPerGroup runs a sweep whose cells split into exactly two
// checkpoint groups (two seeds, three policies each) and asserts that
// exactly one cell per group paid for a cold warmup — the rest forked.
func TestOneWarmupPerGroup(t *testing.T) {
	var cells []*spec.Resolved
	for _, p := range []string{"icount", "stall", "dwarn"} {
		for _, seed := range []uint64{5, 6} {
			rs := spec.RunSpec{
				Policy:       spec.Policy{Name: p},
				Workload:     spec.Workload{Name: "2-ILP"},
				Seed:         seed,
				WarmupCycles: 1000, MeasureCycles: 2000,
			}
			res, err := rs.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, res)
		}
	}
	groups := map[string]bool{}
	for _, c := range cells {
		if c.CheckpointKey == "" {
			t.Fatalf("cell %s has no checkpoint key", c.Fingerprint[:12])
		}
		groups[c.CheckpointKey] = true
	}
	if len(groups) != 2 {
		t.Fatalf("expected 2 checkpoint groups, got %d", len(groups))
	}

	store := &countingCkptStore{inner: ckpt.NewMemStore(ckpt.DefaultMemBytes)}
	e := New(Options{Workers: 4, Checkpoints: store})
	results := e.Execute(context.Background(), cells, nil)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := store.puts.Load(); got != 2 {
		t.Errorf("expected exactly one checkpoint publish per group (2), got %d", got)
	}
}

// TestWarmGateLeaderDeath exercises promotion: when the warm leader
// exits without publishing, exactly one waiter takes over rather than
// all of them stampeding.
func TestWarmGateLeaderDeath(t *testing.T) {
	const k = "0123456789abcdef"
	g := newWarmGate(ckpt.NewMemStore(0))
	leave, err := g.enter(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	promoted := make(chan func(), 2)
	for i := 0; i < 2; i++ {
		go func() {
			l, err := g.enter(context.Background(), k)
			if err != nil {
				t.Error(err)
			}
			promoted <- l
		}()
	}
	leave() // leader dies without publishing
	// Exactly one waiter becomes the new leader; the other still waits.
	first := <-promoted
	select {
	case <-promoted:
		t.Fatal("both waiters promoted at once after leader death")
	default:
	}
	// The new leader publishes; the remaining waiter floods through.
	g.Put(k, &ckpt.Image{Key: k})
	first()
	<-promoted
}

// TestRunReceivesGatedCheckpointStore: a custom Run finds the
// executor's gated checkpoint store in res.Options.Checkpoints (nil
// when checkpointing is off), on a copy: the caller's cell is unchanged.
func TestRunReceivesGatedCheckpointStore(t *testing.T) {
	for _, on := range []bool{true, false} {
		cells := resolveCells(t, []string{"icount"}, []uint64{1})
		opts := Options{Workers: 1, Registry: obs.NewRegistry()}
		if on {
			opts.Checkpoints = ckpt.NewMemStore(0)
		}
		var got ckpt.Store
		opts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			got = res.Options.Checkpoints
			return fakeResult(res), nil
		}
		ex := New(opts)
		if err := FirstError(ex.Execute(context.Background(), cells, nil)); err != nil {
			t.Fatal(err)
		}
		if on && (got == nil || got != ex.CheckpointStore()) {
			t.Errorf("checkpointing on: Run saw %v, want the gated store %v", got, ex.CheckpointStore())
		}
		if !on && got != nil {
			t.Errorf("checkpointing off: Run saw %v, want nil", got)
		}
		if cells[0].Options.Checkpoints != nil {
			t.Error("executor wrote the store into the caller's cell")
		}
	}
}

// TestWarmGateRewarmsAfterEviction: once a bounded tier has evicted a
// group's image, the group warms exactly once again. The next cells of
// the group elect one warm leader and fork from it, instead of skipping
// the gate on a stale "published" key and warming cold all at once —
// whether they come as one batch, or after a cell that found the image
// gone was canceled before it published.
func TestWarmGateRewarmsAfterEviction(t *testing.T) {
	for _, canceled := range []bool{false, true} {
		cells := resolveCells(t, []string{"icount", "stall", "dwarn", "flush", "dg", "pdg"}, []uint64{1})
		key := cells[0].CheckpointKey
		// A one-byte bound keeps only the newest image.
		store := &countingCkptStore{inner: ckpt.NewMemStore(1)}
		e := New(Options{Workers: 4, Checkpoints: store, Registry: obs.NewRegistry(),
			// sim's restore-or-warm, with a cold warmup long enough that
			// concurrent siblings all look up the store before it
			// publishes. With canceled set, the stall cell is canceled
			// mid-warmup.
			Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
				cs := res.Options.Checkpoints
				if _, ok := cs.Get(res.CheckpointKey); !ok {
					if canceled && res.Spec.Policy.Name == "stall" {
						return nil, context.Canceled
					}
					time.Sleep(30 * time.Millisecond)
					cs.Put(res.CheckpointKey, &ckpt.Image{Key: res.CheckpointKey})
				}
				return fakeResult(res), nil
			}})
		if err := FirstError(e.Execute(context.Background(), cells[:1], nil)); err != nil {
			t.Fatal(err)
		}
		other := "0123456789abcdef"
		store.inner.Put(other, &ckpt.Image{Key: other})
		if _, ok := store.inner.Get(key); ok {
			t.Fatal("the group's image survived the eviction")
		}
		rest := cells[1:]
		if canceled {
			if err := FirstError(e.Execute(context.Background(), cells[1:2], nil)); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled warmup: err %v", err)
			}
			rest = cells[2:]
		}
		if err := FirstError(e.Execute(context.Background(), rest, nil)); err != nil {
			t.Fatal(err)
		}
		if got := store.puts.Load(); got != 2 {
			t.Errorf("canceled=%v: publishes = %d, want 2 (the first warmup and one after the eviction)", canceled, got)
		}
	}
}

// TestWarmGatePublishedSetBounded: the published set stays within
// maxPublished however many groups the gate sees.
func TestWarmGatePublishedSetBounded(t *testing.T) {
	g := newWarmGate(nil)
	for i := 0; i < maxPublished+100; i++ {
		g.release(fmt.Sprintf("%x", i))
	}
	if n := len(g.published); n > maxPublished {
		t.Errorf("published set holds %d keys, bound %d", n, maxPublished)
	}
}
