package rl

import (
	"testing"

	"nasaic/internal/stats"
)

// BenchmarkRoundW3 runs one warm controller round at workload W3's geometry
// as the RL co-exploration runs it: SampleRound with φ = 10 hardware-only
// rollouts forced to the 14-decision architecture prefix, then one
// AccumulateRound over the combined rollout, the 11 rollouts and a detached
// replay. The policy is not updated between rounds, so every iteration
// samples from the same distribution.
func BenchmarkRoundW3(b *testing.B) {
	const phi, hidden, archLen = 10, 48, 14
	c := NewController(w3Specs(), hidden, stats.NewRNG(1))
	T := c.NumDecisions()
	mask := make([]bool, T)
	for i := archLen; i < T; i++ {
		mask[i] = true
	}
	replay := c.SampleRound(archLen, phi)[0].Detach()
	credits := roundCredits(1+phi, 0, mask, true)
	train := make([]*Episode, 0, len(credits))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps := c.SampleRound(archLen, phi)
		train = append(append(append(train[:0], eps[0]), eps...), replay)
		c.AccumulateRound(train, credits, 1)
	}
}
