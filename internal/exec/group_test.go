package exec

import (
	"context"
	"errors"
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

// TestWarmGateLeaderDeath exercises the start rule after a failed
// calibration: when the group's first cell gives up its slot without
// publishing, exactly one waiting sibling starts in its place rather
// than all of them stampeding, and the rest fork once it publishes.
func TestWarmGateLeaderDeath(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall", "dwarn"}, []uint64{1})
	store := &countingCkptStore{inner: ckpt.NewMemStore(0)}
	die, publish := make(chan struct{}), make(chan struct{})
	var cold, forks atomic.Int64
	ex := New(Options{Workers: 4, Checkpoints: store, Registry: obs.NewRegistry(),
		// The first cold cell dies unpublished when die is closed; the
		// second calibrates and publishes when publish is closed.
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			cs := res.Options.Checkpoints
			if _, ok := cs.Get(res.CheckpointKey); ok {
				forks.Add(1)
				return fakeResult(res), nil
			}
			if cold.Add(1) == 1 {
				<-die
				return nil, errors.New("leader died")
			}
			<-publish
			cs.Put(res.CheckpointKey, &ckpt.Image{Key: res.CheckpointKey})
			return fakeResult(res), nil
		}})
	out := make(chan []CellResult, 1)
	go func() { out <- ex.Execute(context.Background(), cells, nil) }()

	waitFor(t, "the leader on a slot and its siblings in the line", func() bool {
		return cold.Load() == 1 && ex.waiting() == 2
	})
	close(die) // the leader dies without publishing
	// Exactly one sibling starts in its place; the other still waits.
	waitFor(t, "a sibling to take over", func() bool { return cold.Load() == 2 })
	if n := ex.waiting(); n != 1 {
		t.Fatalf("%d cells in the line after the leader died, want 1", n)
	}
	// The new leader publishes; the remaining sibling forks.
	close(publish)
	failed := 0
	for _, r := range <-out {
		if r.Err != nil {
			failed++
		}
	}
	if failed != 1 || cold.Load() != 2 || forks.Load() != 1 || store.puts.Load() != 1 {
		t.Errorf("failed %d, cold starts %d, forks %d, publishes %d; want 1, 2, 1, 1",
			failed, cold.Load(), forks.Load(), store.puts.Load())
	}
	if n := len(ex.groups); n != 0 {
		t.Errorf("%d group records after every cell left, want 0", n)
	}
}

// TestWarmGateCanceledWaiters: siblings canceled while they wait in the
// line behind the group's warming leader, with slots free, report
// canceled and leave without starting; a later sibling still forks from
// the leader's publish, and once every cell has left, the executor
// holds no group record and no tape bytes.
func TestWarmGateCanceledWaiters(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall", "dwarn", "flush", "dg"}, []uint64{1})
	store := &countingCkptStore{inner: ckpt.NewMemStore(0)}
	leading, finish := make(chan struct{}), make(chan struct{})
	var forks atomic.Int64
	ex := New(Options{Workers: 4, Checkpoints: store, Registry: obs.NewRegistry(),
		// The icount cell warms until finish is closed; any other cell
		// that misses the store warms at once.
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			cs := res.Options.Checkpoints
			if _, ok := cs.Get(res.CheckpointKey); ok {
				forks.Add(1)
				return fakeResult(res), nil
			}
			if res.Spec.Policy.Name == "icount" {
				close(leading)
				<-finish
			}
			cs.Put(res.CheckpointKey, &ckpt.Image{Key: res.CheckpointKey})
			return fakeResult(res), nil
		}})
	leader := submit(context.Background(), ex, cells[0], nil)
	<-leading

	ctx, cancel := context.WithCancel(context.Background())
	waiters := make(chan []CellResult, 1)
	go func() { waiters <- ex.Execute(ctx, cells[1:4], nil) }()
	waitFor(t, "the siblings in the line", func() bool { return ex.waiting() == 3 })
	cancel()
	for _, r := range <-waiters {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("canceled waiter %s: err %v, want canceled", r.Spec.Policy.ID(), r.Err)
		}
	}

	later := submit(context.Background(), ex, cells[4], nil)
	waitFor(t, "the later sibling in the line", func() bool { return ex.waiting() == 1 })
	close(finish)
	for _, ch := range []<-chan CellResult{leader, later} {
		if r := result(t, ch); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := store.puts.Load(); got != 1 {
		t.Errorf("publishes = %d, want 1 (the leader's)", got)
	}
	if got := forks.Load(); got != 1 {
		t.Errorf("forks = %d, want 1 (the later sibling)", got)
	}
	ex.mu.Lock()
	n := len(ex.groups)
	ex.mu.Unlock()
	if n != 0 {
		t.Errorf("%d group records after every cell left, want 0", n)
	}
	if used := ex.tapeBudget.Used(); used != 0 {
		t.Errorf("tape budget holds %d bytes after every cell left, want 0", used)
	}
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
// the group elect one warm leader and fork from it, instead of each
// missing the store and warming cold at once — whether they come as
// one batch, or after a cell that found the image gone was canceled
// before it published. While the image is still stored, a later batch
// whose record is gone warms nothing: every cell forks.
func TestWarmGateRewarmsAfterEviction(t *testing.T) {
	for _, tc := range []struct {
		name            string
		evict, canceled bool
		puts, forks     int64
	}{
		{name: "evicted", evict: true, puts: 2, forks: 4},
		{name: "evicted+canceled", evict: true, canceled: true, puts: 2, forks: 3},
		{name: "stored", puts: 1, forks: 5},
	} {
		cells := resolveCells(t, []string{"icount", "stall", "dwarn", "flush", "dg", "pdg"}, []uint64{1})
		key := cells[0].CheckpointKey
		// A one-byte bound keeps only the newest image.
		store := &countingCkptStore{inner: ckpt.NewMemStore(1)}
		var forks atomic.Int64
		e := New(Options{Workers: 4, Checkpoints: store, Registry: obs.NewRegistry(),
			// sim's restore-or-warm, with a cold warmup long enough that
			// concurrent siblings all look up the store before it
			// publishes. With canceled set, the stall cell is canceled
			// mid-warmup.
			Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
				cs := res.Options.Checkpoints
				if _, ok := cs.Get(res.CheckpointKey); ok {
					forks.Add(1)
					return fakeResult(res), nil
				}
				if tc.canceled && res.Spec.Policy.Name == "stall" {
					return nil, context.Canceled
				}
				time.Sleep(30 * time.Millisecond)
				cs.Put(res.CheckpointKey, &ckpt.Image{Key: res.CheckpointKey})
				return fakeResult(res), nil
			}})
		execute := func(cells []*spec.Resolved) error {
			err := FirstError(e.Execute(context.Background(), cells, nil))
			if n := len(e.groups); n != 0 {
				t.Errorf("%s: %d group records after Execute, want 0", tc.name, n)
			}
			return err
		}
		if err := execute(cells[:1]); err != nil {
			t.Fatal(err)
		}
		if tc.evict {
			other := "0123456789abcdef"
			store.inner.Put(other, &ckpt.Image{Key: other})
			if _, ok := store.inner.Get(key); ok {
				t.Fatal("the group's image survived the eviction")
			}
		}
		rest := cells[1:]
		if tc.canceled {
			if err := execute(cells[1:2]); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled warmup: err %v", err)
			}
			rest = cells[2:]
		}
		if err := execute(rest); err != nil {
			t.Fatal(err)
		}
		if got := store.puts.Load(); got != tc.puts {
			t.Errorf("%s: publishes = %d, want %d", tc.name, got, tc.puts)
		}
		if got := forks.Load(); got != tc.forks {
			t.Errorf("%s: forks = %d, want %d", tc.name, got, tc.forks)
		}
	}
}
