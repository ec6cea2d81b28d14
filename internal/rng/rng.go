// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by the synthetic workload generators.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure must regenerate identically on every run and platform.
// math/rand's global source and version-dependent algorithms make that
// fragile, so this package implements a fixed SplitMix64/PCG-style
// generator whose output is pinned by golden tests.
package rng

// Source is a deterministic pseudo-random source. The zero value is not
// usable; construct with New.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a Source seeded by seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	s := &Source{inc: 0xda3e39cb94b95bdb}
	s.state = splitmix(&seed)
	// Warm up so that nearby seeds decorrelate quickly.
	s.Uint64()
	s.Uint64()
	return s
}

// splitmix advances a SplitMix64 state and returns the next output.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child Source. The child's stream is a pure
// function of the parent's seed and the label, so splitting is itself
// deterministic and order-independent with respect to draws from the
// parent.
func (s *Source) Split(label uint64) *Source {
	seed := s.state ^ (label+1)*0x9e3779b97f4a7c15
	return New(splitmix(&seed))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	// xorshift64* — small, fast, well-understood; quality is ample for
	// workload synthesis.
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return (x * 0x2545f4914f6cdd1d) + s.inc
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Pick returns a random index weighted by weights. Zero or negative
// weights are treated as zero. If all weights are zero it returns 0.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if target < w {
			return i
		}
		target -= w
	}
	return len(weights) - 1
}
