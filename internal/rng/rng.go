// Package rng provides the deterministic pseudo-random number generator
// used by every stochastic component of the simulator (synthetic trace
// generation, address streams, branch outcome synthesis).
//
// The simulator must be bit-reproducible across runs and platforms, and
// independent components must be able to draw from independent streams,
// so rng wraps a SplitMix64 core: cheap, well distributed, and trivially
// splittable by deriving child seeds.
package rng

import (
	"math"
	"math/bits"
)

// Source is a SplitMix64 pseudo-random generator. The zero value is a
// valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child Source. The child's stream is a
// deterministic function of the parent state and the salt, so components
// created in a fixed order always see the same streams.
func (s *Source) Split(salt uint64) *Source {
	return New(s.Uint64() ^ (salt * 0x9e3779b97f4a7c15))
}

// State returns the generator's internal state word: New(s.State())
// resumes the stream at exactly the same position.
func (s *Source) State() uint64 { return s.state }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a uniformly distributed int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	v := s.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Threshold converts a probability into the integer threshold Below
// compares against: ceil(p·2^53), clamped to [0, 2^53]. Float64 draws
// k/2^53 for the integer k = Uint64()>>11 < 2^53, and scaling p by a
// power of two is exact, so Float64() < p holds exactly when
// k < Threshold(p). Below(Threshold(p)) therefore draws the same bit as
// Bool(p) without the int→float conversion and the compare, and a
// caller that draws against a fixed p can compute the threshold once.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN: Float64() < NaN never holds
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws one uniform 53-bit integer and reports whether it is less
// than t. Below(Threshold(p)) is bit-identical to Bool(p).
func (s *Source) Below(t uint64) bool {
	return s.Uint64()>>11 < t
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Below(Threshold(p))
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). p must be in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	return s.GeometricT(Threshold(p))
}

// GeometricT is Geometric for a precomputed success threshold
// t = Threshold(p): one Below(t) draw per trial, so it consumes the
// stream exactly as Geometric(p) does. t must be in [1, 2^53].
func (s *Source) GeometricT(t uint64) int {
	if t == 0 || t > 1<<53 {
		panic("rng: GeometricT needs t in [1, 2^53]")
	}
	if t == 1<<53 {
		return 0
	}
	n := 0
	for !s.Below(t) {
		n++
		if n > 1<<20 {
			// Defensive bound; unreachable for sane p.
			break
		}
	}
	return n
}

// Pick returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and sum to a
// positive value.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Pick needs a positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
