package workload

import (
	"fmt"
	"sort"
	"sync"
)

// Mix is the paper's workload classification by cache behaviour.
type Mix uint8

const (
	// MixILP contains only benchmarks with good cache behaviour.
	MixILP Mix = iota
	// MixMIX contains both ILP and MEM benchmarks.
	MixMIX
	// MixMEM contains only memory-bounded benchmarks.
	MixMEM
)

func (m Mix) String() string {
	switch m {
	case MixILP:
		return "ILP"
	case MixMIX:
		return "MIX"
	case MixMEM:
		return "MEM"
	}
	return fmt.Sprintf("Mix(%d)", uint8(m))
}

// Workload is one multiprogrammed workload from Table 2(b).
type Workload struct {
	// Name is e.g. "4-MIX".
	Name string
	// Threads is the thread count (2, 4, 6, 8).
	Threads int
	// Mix is the cache-behaviour class.
	Mix Mix
	// Benchmarks lists the co-scheduled programs; duplicates are the
	// paper's boldface replicated instances, which it de-phased by one
	// million instructions (we de-phase by seeding each instance
	// differently).
	Benchmarks []string
}

// table2b is the exact workload table from the paper.
var table2b = []Workload{
	{Name: "2-ILP", Threads: 2, Mix: MixILP, Benchmarks: []string{"gzip", "bzip2"}},
	{Name: "2-MIX", Threads: 2, Mix: MixMIX, Benchmarks: []string{"gzip", "twolf"}},
	{Name: "2-MEM", Threads: 2, Mix: MixMEM, Benchmarks: []string{"mcf", "twolf"}},
	{Name: "4-ILP", Threads: 4, Mix: MixILP, Benchmarks: []string{"gzip", "bzip2", "eon", "gcc"}},
	{Name: "4-MIX", Threads: 4, Mix: MixMIX, Benchmarks: []string{"gzip", "twolf", "bzip2", "mcf"}},
	{Name: "4-MEM", Threads: 4, Mix: MixMEM, Benchmarks: []string{"mcf", "twolf", "vpr", "parser"}},
	{Name: "6-ILP", Threads: 6, Mix: MixILP, Benchmarks: []string{"gzip", "bzip2", "eon", "gcc", "crafty", "perlbmk"}},
	{Name: "6-MIX", Threads: 6, Mix: MixMIX, Benchmarks: []string{"gzip", "twolf", "bzip2", "mcf", "vpr", "eon"}},
	{Name: "6-MEM", Threads: 6, Mix: MixMEM, Benchmarks: []string{"mcf", "twolf", "vpr", "parser", "mcf", "twolf"}},
	{Name: "8-ILP", Threads: 8, Mix: MixILP, Benchmarks: []string{"gzip", "bzip2", "eon", "gcc", "crafty", "perlbmk", "gap", "vortex"}},
	{Name: "8-MIX", Threads: 8, Mix: MixMIX, Benchmarks: []string{"gzip", "twolf", "bzip2", "mcf", "vpr", "eon", "parser", "gap"}},
	{Name: "8-MEM", Threads: 8, Mix: MixMEM, Benchmarks: []string{"mcf", "twolf", "vpr", "parser", "mcf", "twolf", "vpr", "parser"}},
}

// Workloads returns the full Table 2(b) set, in paper order.
func Workloads() []Workload {
	out := make([]Workload, len(table2b))
	copy(out, table2b)
	return out
}

// WorkloadsByThreads returns the workloads with the given thread counts,
// in paper order (used for the small machine, which runs only 2- and
// 4-thread workloads).
func WorkloadsByThreads(counts ...int) []Workload {
	want := map[int]bool{}
	for _, c := range counts {
		want[c] = true
	}
	var out []Workload
	for _, w := range table2b {
		if want[w.Threads] {
			out = append(out, w)
		}
	}
	return out
}

// GetWorkload returns the named workload from Table 2(b).
func GetWorkload(name string) (Workload, error) {
	for _, w := range table2b {
		if w.Name == name {
			return w, nil
		}
	}
	var known []string
	for _, w := range table2b {
		known = append(known, w.Name)
	}
	sort.Strings(known)
	return Workload{}, fmt.Errorf("workload: unknown workload %q (known: %v)", name, known)
}

// Custom builds a user-defined workload from benchmark names: the
// thread count is the benchmark count and the Mix class is inferred
// from the profiles' MEM/ILP types, the same rule Table 2(b) follows.
func Custom(name string, benchmarks []string) (Workload, error) {
	w := Workload{
		Name:       name,
		Threads:    len(benchmarks),
		Benchmarks: append([]string(nil), benchmarks...),
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	var mem, ilp bool
	for _, b := range benchmarks {
		p, _ := Get(b) // Validate above guarantees the lookup succeeds
		if p.Type == MEM {
			mem = true
		} else {
			ilp = true
		}
	}
	switch {
	case mem && ilp:
		w.Mix = MixMIX
	case mem:
		w.Mix = MixMEM
	default:
		w.Mix = MixILP
	}
	return w, nil
}

// Validate checks a (possibly user-defined) workload.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: workload needs a name")
	}
	if len(w.Benchmarks) == 0 {
		return fmt.Errorf("workload: %s has no benchmarks", w.Name)
	}
	if w.Threads != len(w.Benchmarks) {
		return fmt.Errorf("workload: %s declares %d threads but lists %d benchmarks", w.Name, w.Threads, len(w.Benchmarks))
	}
	for _, b := range w.Benchmarks {
		if _, err := Get(b); err != nil {
			return err
		}
	}
	return nil
}

// Generators builds one uop stream per thread, each over a live
// synthetic generator walking its benchmark's CFG.
func (w *Workload) Generators(seed uint64) ([]*Stream, error) {
	cores, err := w.Cores(seed)
	if err != nil {
		return nil, err
	}
	return Streams(cores), nil
}

// Streams builds one fresh stream per core, each over a new generator.
// Streams over the same cores are bit-identical, however many runs
// share them.
func Streams(cores []*Core) []*Stream {
	out := make([]*Stream, len(cores))
	for i, c := range cores {
		out[i] = c.Generator().Stream()
	}
	return out
}

// threadSeed and threadBase derive thread i's generator seed and
// address base from the run seed. Replicated benchmark instances get
// different seeds (standing in for the paper's one-million-instruction
// shift), and every thread gets a disjoint address space with a
// pseudo-random line-aligned stagger: without it every thread's regions
// would start set-aligned and collide pathologically in the shared
// caches.
func threadSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x51ed2701 }

func threadBase(seed uint64, i int) uint64 {
	stagger := (seed + uint64(i)*0x9e3779b97f4a7c15) >> 13 & 0x3FFFC0
	return uint64(i+1)<<40 + stagger
}

// Cores calibrates one program core per thread for the run seed. Each
// thread's build depends only on its own (profile, seed, base), so the
// builds run concurrently; each lands in its own slot.
func (w *Workload) Cores(seed uint64) ([]*Core, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	cores := make([]*Core, len(w.Benchmarks))
	var wg sync.WaitGroup
	for i, name := range w.Benchmarks {
		prof, err := Get(name)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cores[i] = buildCore(prof, threadSeed(seed, i), threadBase(seed, i))
		}()
	}
	wg.Wait()
	return cores, nil
}

// Fits reports whether cores are the ones Cores(seed) would build: one
// per thread, each of the thread's benchmark at its seed and base.
func (w *Workload) Fits(seed uint64, cores []*Core) error {
	if len(cores) != len(w.Benchmarks) {
		return fmt.Errorf("workload: %d cores for %d threads", len(cores), len(w.Benchmarks))
	}
	for i, c := range cores {
		if c.prof.Name != w.Benchmarks[i] || c.seed != threadSeed(seed, i) || c.base != threadBase(seed, i) {
			return fmt.Errorf("workload: core %d is %s at seed %d base %#x, thread %d runs %s at seed %d base %#x",
				i, c.prof.Name, c.seed, c.base, i, w.Benchmarks[i], threadSeed(seed, i), threadBase(seed, i))
		}
	}
	return nil
}
