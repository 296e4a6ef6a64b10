// Package stats provides deterministic randomness, running statistics, and
// small numeric helpers shared by the NASAIC search infrastructure.
//
// All experiments in this repository are seeded so that every table and
// figure regenerates identically run-to-run; RNG wraps math/rand.
package stats

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source. It is a thin wrapper over
// math/rand.Rand that adds categorical sampling. An RNG is not safe for
// concurrent use.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Categorical samples an index from the probability vector p. The vector
// must be non-negative; it is normalized internally so callers may pass
// unnormalized weights. It panics if p is empty or sums to zero.
func (g *RNG) Categorical(p []float64) int {
	return CategoricalU(g.r.Float64(), p)
}

// CategoricalU samples an index from p using the externally drawn uniform
// u0 ∈ [0,1). It is the deterministic core of Categorical: batched samplers
// pre-draw their uniforms in the sequential call order and delegate here, so
// a lockstep batch consumes the RNG stream — and picks actions —
// bit-identically to the equivalent sequential draws.
func CategoricalU(u0 float64, p []float64) int {
	if len(p) == 0 {
		panic("stats: Categorical on empty distribution")
	}
	var sum float64
	for _, v := range p {
		if v < 0 {
			panic("stats: Categorical with negative weight")
		}
		sum += v
	}
	if sum == 0 {
		panic("stats: Categorical with zero-mass distribution")
	}
	u := u0 * sum
	acc := 0.0
	for i, v := range p {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}

// HashString maps a string to a stable 64-bit value. It is used to derive
// deterministic per-architecture perturbations in the accuracy predictor.
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// HashUnit maps a string to a stable value in [0,1).
func HashUnit(s string) float64 {
	return float64(HashString(s)%1_000_000_007) / 1_000_000_007.0
}
