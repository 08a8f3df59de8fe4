package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split(3)
	b := New(9).Split(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.06*float64(want) {
			t.Errorf("bucket %d: %d, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	const draws = 50000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) rate %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	const p, draws = 0.25, 50000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // 3.0
	if mean := sum / draws; math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean %v, want ~%v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(29)
	if v := r.Geometric(1); v != 0 {
		t.Errorf("Geometric(1) = %d, want 0", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestPickWeights(t *testing.T) {
	r := New(31)
	weights := []float64{1, 3, 0, 6}
	counts := make([]int, 4)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[2])
	}
	if p := float64(counts[3]) / draws; math.Abs(p-0.6) > 0.02 {
		t.Errorf("bucket 3 rate %v, want ~0.6", p)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero total did not panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestUint32NotConstant(t *testing.T) {
	r := New(37)
	first := r.Uint32()
	for i := 0; i < 10; i++ {
		if r.Uint32() != first {
			return
		}
	}
	t.Fatal("Uint32 appears constant")
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 10; i++ {
			if v := r.Intn(m); v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterministicReplay(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// thresholdProbes are the probabilities where an integer threshold
// could disagree with the float compare: the ends of [0, 1], the
// smallest and largest non-trivial draws, and the float neighbours of
// k/2^53 for a spread of k (exactly representable, so Float64 can
// return k/2^53 itself).
func thresholdProbes() []float64 {
	ps := []float64{0, 1, 0x1p-53, 1 - 0x1p-53, 0.5, 1.0 / 3, 0.97, 0.6, 1e-300, 5e-324}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 + 1, 1<<53 - 2, 1<<53 - 1, 0x123456789abcd} {
		x := float64(k) / (1 << 53)
		ps = append(ps, math.Nextafter(x, 0), x, math.Nextafter(x, 1))
	}
	return ps
}

// TestThresholdMatchesFloatCompare is the bit-identity property behind
// the integer draws: for every probe p and many seeds, Below(Threshold(p))
// answers exactly Float64() < p, and GeometricT(Threshold(p)) returns
// the same value and leaves the stream at the same position as the
// float-compare geometric loop.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	for _, p := range thresholdProbes() {
		th := Threshold(p)
		for seed := uint64(0); seed < 200; seed++ {
			a, b := New(seed), New(seed)
			for i := 0; i < 50; i++ {
				if got, want := a.Below(th), b.Float64() < p; got != want {
					t.Fatalf("p=%v seed=%d draw %d: Below(%d)=%v, Float64()<p=%v", p, seed, i, th, got, want)
				}
			}
			if p <= 0 || p > 1 || p < 1e-6 {
				continue // the reference loop would run ~1/p trials
			}
			for i := 0; i < 20; i++ {
				if got, want := a.GeometricT(th), refGeometric(b, p); got != want {
					t.Fatalf("p=%v seed=%d: GeometricT=%d, reference=%d", p, seed, got, want)
				}
			}
			if a.State() != b.State() {
				t.Fatalf("p=%v seed=%d: streams out of step after geometric draws", p, seed)
			}
		}
	}
}

// refGeometric is the float-compare geometric sampler GeometricT must
// reproduce draw for draw.
func refGeometric(r *Source, p float64) int {
	if p == 1 {
		return 0
	}
	n := 0
	for !(r.Float64() < p) {
		n++
	}
	return n
}

// TestThresholdBoundary checks the identity behind Below at the draws
// where it could break, which random draws almost never reach: for every
// probe p, each 53-bit draw k next to p·2^53 satisfies k < Threshold(p)
// exactly when Float64 would have returned k/2^53 < p.
func TestThresholdBoundary(t *testing.T) {
	for _, p := range thresholdProbes() {
		th := Threshold(p)
		mid := uint64(math.Max(0, math.Min(p, 1)) * (1 << 53))
		for k := mid - min(mid, 3); k <= mid+3 && k < 1<<53; k++ {
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Errorf("p=%v k=%d: k < Threshold(p)=%d is %v, k/2^53 < p is %v", p, k, th, got, want)
			}
		}
	}
}

func TestThresholdClamps(t *testing.T) {
	for p, want := range map[float64]uint64{-1: 0, 0: 0, math.NaN(): 0, 1: 1 << 53, 2: 1 << 53, 0x1p-53: 1, 5e-324: 1} {
		if got := Threshold(p); got != want {
			t.Errorf("Threshold(%v) = %d, want %d", p, got, want)
		}
	}
}
