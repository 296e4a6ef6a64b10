package rl

import (
	"fmt"
	"math"
	"testing"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// The batched controller path promises bit-identity with the sequential
// path: same actions, same logits, same RNG stream consumption, and — after
// AccumulateBatch/Update — the same parameters down to the last bit.
// Floating-point addition is not associative, so this is a real contract
// (the batched implementation replays its gradient adds in the sequential
// order); these differential tests enforce it across batch sizes, forced
// prefixes, masks, entropy regularization and multi-round training.

func wideSpecs() []DecisionSpec {
	return []DecisionSpec{
		{Name: "FN0", NumOptions: 4},
		{Name: "SK0", NumOptions: 3},
		{Name: "FN1", NumOptions: 6},
		{Name: "df", NumOptions: 3},
		{Name: "pe", NumOptions: 9},
		{Name: "bw", NumOptions: 5},
	}
}

// twinControllers builds two controllers with identical parameters and
// independent but identically seeded RNG streams.
func twinControllers(t *testing.T, seed int64, hidden int) (seq, bat *Controller) {
	t.Helper()
	seq = NewController(wideSpecs(), hidden, stats.NewRNG(seed))
	bat = NewController(wideSpecs(), hidden, stats.NewRNG(seed))
	requireParamsEqual(t, seq, bat, "fresh controllers")
	return seq, bat
}

func requireParamsEqual(t *testing.T, a, b *Controller, stage string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: parameter count %d vs %d", stage, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("%s: parameter order diverged: %s vs %s", stage, pa[i].Name, pb[i].Name)
		}
		for j := range pa[i].Val.W {
			if va, vb := pa[i].Val.W[j], pb[i].Val.W[j]; va != vb {
				t.Fatalf("%s: %s[%d] = %.17g (seq) vs %.17g (batched), delta %g",
					stage, pa[i].Name, j, va, vb, va-vb)
			}
		}
		for j := range pa[i].Grad.W {
			if ga, gb := pa[i].Grad.W[j], pb[i].Grad.W[j]; ga != gb {
				t.Fatalf("%s: grad %s[%d] = %.17g (seq) vs %.17g (batched), delta %g",
					stage, pa[i].Name, j, ga, gb, ga-gb)
			}
		}
	}
}

func requireEpisodesEqual(t *testing.T, seqEps, batEps []*Episode, stage string) {
	t.Helper()
	if len(seqEps) != len(batEps) {
		t.Fatalf("%s: episode count %d vs %d", stage, len(seqEps), len(batEps))
	}
	for e := range seqEps {
		a, b := seqEps[e], batEps[e]
		for tt := range a.Actions {
			if a.Actions[tt] != b.Actions[tt] {
				t.Fatalf("%s: episode %d step %d action %d vs %d", stage, e, tt, a.Actions[tt], b.Actions[tt])
			}
			for i := range a.Logits[tt] {
				if a.Logits[tt][i] != b.Logits[tt][i] {
					t.Fatalf("%s: episode %d step %d logit[%d] %.17g vs %.17g",
						stage, e, tt, i, a.Logits[tt][i], b.Logits[tt][i])
				}
			}
		}
		if lpa, lpb := a.LogProb(), b.LogProb(); lpa != lpb {
			t.Fatalf("%s: episode %d log prob %.17g vs %.17g", stage, e, lpa, lpb)
		}
	}
}

// advsFor derives a deterministic per-episode advantage spread (positive and
// negative, magnitude varying) without touching the controller RNGs.
func advsFor(b int, round int) []float64 {
	advs := make([]float64, b)
	for i := range advs {
		advs[i] = math.Sin(float64(i*7+round*13+1)) * 1.5
	}
	return advs
}

func TestSampleBatchBitIdenticalToSequential(t *testing.T) {
	for _, b := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("batch=%d", b), func(t *testing.T) {
			seq, bat := twinControllers(t, 42+int64(b), 20)
			seqEps := make([]*Episode, b)
			for e := range seqEps {
				seqEps[e] = seq.Sample()
			}
			batEps := bat.SampleBatch(b)
			requireEpisodesEqual(t, seqEps, batEps, "sample")
			// Both paths must have consumed the RNG stream identically.
			if us, ub := seq.rng.Float64(), bat.rng.Float64(); us != ub {
				t.Fatalf("post-sample RNG streams diverged: %.17g vs %.17g", us, ub)
			}
		})
	}
}

func TestSampleForcedBatchBitIdenticalToSequential(t *testing.T) {
	prefix := []int{2, 1, 5}
	for _, b := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("batch=%d", b), func(t *testing.T) {
			seq, bat := twinControllers(t, 7+int64(b), 20)
			seqEps := make([]*Episode, b)
			for e := range seqEps {
				seqEps[e] = seq.sampleForced(prefix)
			}
			batEps := bat.SampleForcedBatch(prefix, b)
			requireEpisodesEqual(t, seqEps, batEps, "forced sample")
			for e, ep := range batEps {
				for i, want := range prefix {
					if ep.Actions[i] != want {
						t.Fatalf("episode %d: forced action %d not pinned", e, i)
					}
				}
			}
			if us, ub := seq.rng.Float64(), bat.rng.Float64(); us != ub {
				t.Fatalf("post-sample RNG streams diverged: %.17g vs %.17g", us, ub)
			}
		})
	}
}

// The full update differential: sample, accumulate with per-episode
// advantages, optimizer step — gradients and post-update parameters must be
// bit-identical, with and without mask and entropy regularization.
func TestAccumulateBatchBitIdenticalToSequential(t *testing.T) {
	mask := []bool{false, false, false, true, true, true}
	cases := []struct {
		name    string
		entropy float64
		masked  bool
	}{
		{"plain", 0, false},
		{"entropy", 0.02, false},
		{"masked", 0, true},
		{"masked+entropy", 0.015, true},
	}
	for _, tc := range cases {
		for _, b := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, b), func(t *testing.T) {
				seq, bat := twinControllers(t, 100+int64(b), 24)
				seq.EntropyCoef, bat.EntropyCoef = tc.entropy, tc.entropy
				var active []bool
				if tc.masked {
					active = mask
				}

				seqEps := make([]*Episode, b)
				for e := range seqEps {
					seqEps[e] = seq.Sample()
				}
				batEps := bat.SampleBatch(b)
				requireEpisodesEqual(t, seqEps, batEps, "sample")

				advs := advsFor(b, 0)
				scale := 1.0 / float64(b)
				for e := range seqEps {
					seq.AccumulateMasked(seqEps[e], advs[e], 0.97, scale, active)
				}
				bat.AccumulateMaskedBatch(batEps, advs, 0.97, scale, active)
				requireParamsEqual(t, seq, bat, "post-accumulate")

				seq.Update(nn.NewRMSProp())
				bat.Update(nn.NewRMSProp())
				requireParamsEqual(t, seq, bat, "post-update")
			})
		}
	}
}

// Multi-round differential mimicking core.Run's structure: a sequential
// combined sample, a forced lockstep batch, a joint accumulation of the
// heterogeneous episode set, a replay accumulation of a retained episode
// from an earlier round, and periodic updates — over several rounds with a
// shared optimizer, so divergence anywhere would compound and be caught.
func TestTrainingLoopBitIdenticalAcrossRounds(t *testing.T) {
	seq, bat := twinControllers(t, 77, 24)
	seq.EntropyCoef, bat.EntropyCoef = 0.015, 0.015
	optSeq, optBat := nn.NewRMSProp(), nn.NewRMSProp()
	optSeq.LR, optBat.LR = 0.03, 0.03
	mask := []bool{false, false, true, true, true, true}
	const phi = 5

	var replaySeq, replayBat *Episode
	for round := 0; round < 6; round++ {
		combinedSeq := seq.Sample()
		combinedBat := bat.Sample()

		prefixSeq := combinedSeq.Actions[:2]
		prefixBat := combinedBat.Actions[:2]
		seqEps := []*Episode{combinedSeq}
		for i := 0; i < phi; i++ {
			seqEps = append(seqEps, seq.sampleForced(prefixSeq))
		}
		batEps := append([]*Episode{combinedBat}, bat.SampleForcedBatch(prefixBat, phi)...)
		requireEpisodesEqual(t, seqEps, batEps, fmt.Sprintf("round %d sample", round))

		advs := advsFor(len(seqEps), round)
		scale := 0.2 / float64(len(seqEps))
		for e := range seqEps {
			seq.AccumulateMasked(seqEps[e], advs[e], 1.0, scale, mask)
		}
		bat.AccumulateMaskedBatch(batEps, advs, 1.0, scale, mask)

		// Self-imitation replay of an episode retained from a prior round,
		// accumulated sequentially on both sides (as core.Run does).
		if replaySeq != nil {
			seq.Accumulate(replaySeq, 0.4, 1.0, 0.2)
			bat.Accumulate(replayBat, 0.4, 1.0, 0.2)
		}
		replaySeq, replayBat = seqEps[1+round%phi], batEps[1+round%phi]

		if round%2 == 1 {
			seq.Update(optSeq)
			bat.Update(optBat)
		}
		requireParamsEqual(t, seq, bat, fmt.Sprintf("round %d", round))
	}
}

func TestBatchAPIValidation(t *testing.T) {
	c := NewController(wideSpecs(), 12, stats.NewRNG(5))
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("zero batch", func() { c.SampleBatch(0) })
	expectPanic("negative batch", func() { c.SampleBatch(-3) })
	expectPanic("long prefix", func() { c.SampleForcedBatch(make([]int, 7), 2) })
	expectPanic("bad forced action", func() { c.SampleForcedBatch([]int{99}, 2) })
	eps := c.SampleBatch(3)
	expectPanic("advantage count", func() { c.AccumulateBatch(eps, []float64{1}, 1, 1) })
	expectPanic("mask length", func() { c.AccumulateMaskedBatch(eps, []float64{1, 1, 1}, 1, 1, []bool{true}) })

	// Empty batch accumulation is a no-op, matching a zero-iteration loop.
	c.AccumulateBatch(nil, nil, 1, 1)
	for _, p := range c.Params() {
		if n := p.GradNorm(); n != 0 {
			t.Errorf("empty-batch accumulate touched %s (grad norm %g)", p.Name, n)
		}
	}
}
