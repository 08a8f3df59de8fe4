package service

import (
	"fmt"
	"sync"
	"testing"

	"dwarn/internal/sim"
)

// The server's in-memory result tier is the count-bounded store.Mem
// sized by Options.CacheEntries, reported through CacheStats.

func TestCacheGetPut(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1, CacheEntries: 2})
	c := srv.cache
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	want := &sim.Result{Throughput: 1}
	c.Put("a", want)
	if got, ok := c.Get("a"); !ok || got != want {
		t.Fatalf("Get(a) = %p, %v; want the stored pointer", got, ok)
	}
	st := srv.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Max != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1, CacheEntries: 2})
	c := srv.cache
	c.Put("a", &sim.Result{})
	c.Put("b", &sim.Result{})
	c.Get("a")                // a is now most recent
	c.Put("c", &sim.Result{}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	// Re-putting a present key refreshes it without growing the cache.
	c.Put("a", &sim.Result{Throughput: 2})
	if got, _ := c.Get("a"); got.Throughput != 2 {
		t.Fatalf("re-put value not stored: %+v", got)
	}
	if st := srv.CacheStats(); st.Entries != 2 || st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheHammer drives many goroutines over a small key space with a
// cache too small to hold it, exercising eviction and counter updates
// together under -race.
func TestCacheHammer(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1, CacheEntries: 4})
	c := srv.cache
	var wg sync.WaitGroup
	const goroutines, rounds = 16, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("%04x", (g+i)%10)
				if res, ok := c.Get(key); ok && res.Workload != key {
					t.Errorf("Get(%s) returned the entry for %s", key, res.Workload)
					return
				}
				c.Put(key, &sim.Result{Workload: key})
			}
		}(g)
	}
	wg.Wait()
	st := srv.CacheStats()
	if st.Entries > 4 {
		t.Fatalf("cache grew past its bound: %+v", st)
	}
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
}
