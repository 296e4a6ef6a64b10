package rl

import (
	"fmt"
	"math"
	"testing"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// The controller's engine promises that batching never changes a bit: the
// rollouts of a lockstep batch equal one-episode reference rollouts (same
// actions, same logits, same RNG stream consumption), and one accumulate
// call over a set of episodes leaves the same gradients — and, after Update,
// the same parameters — as one reference pass per episode in order.
// Floating-point addition is not associative, so this is a real contract
// (the engine replays its gradient adds in the per-episode order); these
// differential tests enforce it across batch widths, forced prefixes,
// masks, entropy regularization, replays and multi-round training.

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
			if va, vb := pa[i].Val.W[j], pb[i].Val.W[j]; math.Float64bits(va) != math.Float64bits(vb) {
				t.Fatalf("%s: %s[%d] = %.17g (seq) vs %.17g (batched), delta %g",
					stage, pa[i].Name, j, va, vb, va-vb)
			}
		}
		for j := range pa[i].Grad.W {
			if ga, gb := pa[i].Grad.W[j], pb[i].Grad.W[j]; math.Float64bits(ga) != math.Float64bits(gb) {
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
			// Every cached column the backward pass reads, and the logits.
			sa, sb := &a.rec.steps[tt], &b.rec.steps[tt]
			fields := []struct {
				name   string
				ma, mb *nn.Mat
			}{
				{"X", sa.X, sb.X}, {"HPrev", sa.HPrev, sb.HPrev}, {"CPrev", sa.CPrev, sb.CPrev},
				{"I", sa.I, sb.I}, {"F", sa.F, sb.F}, {"G", sa.G, sb.G}, {"O", sa.O, sb.O},
				{"C", sa.C, sb.C}, {"H", sa.H, sb.H}, {"TC", sa.TC, sb.TC},
				{"logits", &a.rec.logits[tt], &b.rec.logits[tt]},
			}
			for _, f := range fields {
				va, vb := f.ma.Col(a.col), f.mb.Col(b.col)
				for i := range va {
					if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
						t.Fatalf("%s: episode %d step %d %s[%d] %.17g vs %.17g",
							stage, e, tt, f.name, i, va[i], vb[i])
					}
				}
			}
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
				seqEps[e] = seq.refSample(nil)
			}
			// A round with no forced prefix is b free rollouts.
			batEps := bat.SampleRound(0, b-1)
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
				seqEps[e] = seq.refSample(prefix)
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
					seqEps[e] = seq.refSample(nil)
				}
				batEps := bat.SampleRound(0, b-1)
				requireEpisodesEqual(t, seqEps, batEps, "sample")

				advs := advsFor(b, 0)
				scale := 1.0 / float64(b)
				for e := range seqEps {
					seq.refAccumulate(seqEps[e], Credit{Adv: advs[e], Scale: scale, Mask: active}, 0.97)
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

// Multi-round differential mimicking core.RunContext's structure: each
// round is one SampleRound (a combined rollout plus φ rollouts forced to its
// architecture prefix) and one AccumulateRound over the combined rollout,
// the masked hardware rollouts and a replay of an episode retained from an
// earlier round, with periodic updates — over several rounds with a shared
// optimizer, so divergence anywhere would compound and be caught. The
// reference side steps every episode on its own.
func TestTrainingLoopBitIdenticalAcrossRounds(t *testing.T) {
	seq, bat := twinControllers(t, 77, 24)
	seq.EntropyCoef, bat.EntropyCoef = 0.015, 0.015
	optSeq, optBat := nn.NewRMSProp(), nn.NewRMSProp()
	optSeq.LR, optBat.LR = 0.03, 0.03
	mask := []bool{false, false, true, true, true, true}
	const phi, p = 5, 2

	var replaySeq, replayBat *Episode
	for round := 0; round < 6; round++ {
		combinedSeq := seq.refSample(nil)
		seqEps := []*Episode{combinedSeq}
		for i := 0; i < phi; i++ {
			seqEps = append(seqEps, seq.refSample(combinedSeq.Actions[:p]))
		}
		batEps := bat.SampleRound(p, phi)
		requireEpisodesEqual(t, seqEps, batEps, fmt.Sprintf("round %d sample", round))

		advs := advsFor(1+len(seqEps), round)
		scale := 0.2 / float64(len(seqEps))
		credits := []Credit{{Adv: advs[0], Scale: 0.2}}
		for e := range seqEps {
			credits = append(credits, Credit{Adv: advs[1+e], Scale: scale, Mask: mask})
		}
		seqTrain := append([]*Episode{combinedSeq}, seqEps...)
		batTrain := append([]*Episode{batEps[0]}, batEps...)
		if replaySeq != nil {
			credits = append(credits, Credit{Adv: 0.4, Scale: 0.2})
			seqTrain = append(seqTrain, replaySeq)
			batTrain = append(batTrain, replayBat)
		}
		for e, ep := range seqTrain {
			seq.refAccumulate(ep, credits[e], 1.0)
		}
		bat.AccumulateRound(batTrain, credits, 1.0)
		// The replay outlives the round's views: keep a detached copy.
		replaySeq, replayBat = seqEps[1+round%phi], batEps[1+round%phi].Detach()

		if round%2 == 1 {
			seq.Update(optSeq)
			bat.Update(optBat)
		}
		requireParamsEqual(t, seq, bat, fmt.Sprintf("round %d", round))
	}
}

// TestRoundMatchesEntryPoints checks the merged round against the four
// separate entry points: SampleRound(p, φ) must equal Sample followed by
// SampleForcedBatch(its first p actions, φ) — actions, logits and the RNG
// state afterwards — and one AccumulateRound over the combined rollout, the
// masked hardware rollouts and an optional replay must leave the same
// gradients bit for bit as Accumulate + AccumulateMaskedBatch + Accumulate.
// The replay is absent, an episode of a past round, or an episode of the
// same round.
func TestRoundMatchesEntryPoints(t *testing.T) {
	mask := []bool{false, false, false, true, true, true}
	const p = 3
	for _, phi := range []int{0, 3, 10} {
		for _, replay := range []string{"none", "past", "same"} {
			t.Run(fmt.Sprintf("phi=%d/replay=%s", phi, replay), func(t *testing.T) {
				sep, mer := twinControllers(t, 300+int64(phi), 16)
				sep.EntropyCoef, mer.EntropyCoef = 0.01, 0.01
				optSep, optMer := nn.NewRMSProp(), nn.NewRMSProp()
				var pastSep, pastMer *Episode
				for round := 0; round < 3; round++ {
					combined := sep.Sample()
					sepEps := []*Episode{combined}
					if phi > 0 {
						sepEps = append(sepEps, sep.SampleForcedBatch(combined.Actions[:p], phi)...)
					}
					merEps := mer.SampleRound(p, phi)
					requireEpisodesEqual(t, sepEps, merEps, fmt.Sprintf("round %d sample", round))
					if us, um := sep.rng.Float64(), mer.rng.Float64(); us != um {
						t.Fatalf("round %d: post-sample RNG streams diverged: %.17g vs %.17g", round, us, um)
					}

					advs := advsFor(1+len(sepEps), round)
					const batchScale = 0.5
					hwScale := batchScale / float64(len(sepEps))
					sep.Accumulate(sepEps[0], advs[0], 0.9, batchScale)
					sep.AccumulateMaskedBatch(sepEps, advs[1:], 0.9, hwScale, mask)

					merTrain := append([]*Episode{merEps[0]}, merEps...)
					credits := []Credit{{Adv: advs[0], Scale: batchScale}}
					for _, adv := range advs[1:] {
						credits = append(credits, Credit{Adv: adv, Scale: hwScale, Mask: mask})
					}
					var replaySep, replayMer *Episode
					switch replay {
					case "past":
						replaySep, replayMer = pastSep, pastMer
					case "same":
						replaySep, replayMer = sepEps[len(sepEps)-1], merEps[len(merEps)-1]
					}
					if replaySep != nil {
						sep.Accumulate(replaySep, 0.7, 0.9, batchScale)
						merTrain = append(merTrain, replayMer)
						credits = append(credits, Credit{Adv: 0.7, Scale: batchScale})
					}
					mer.AccumulateRound(merTrain, credits, 0.9)
					requireParamsEqual(t, sep, mer, fmt.Sprintf("round %d accumulate", round))

					pastSep, pastMer = sepEps[round%len(sepEps)], merEps[round%len(merEps)].Detach()
					sep.Update(optSep)
					mer.Update(optMer)
					requireParamsEqual(t, sep, mer, fmt.Sprintf("round %d update", round))
				}
			})
		}
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
	expectPanic("zero batch", func() { c.SampleForcedBatch(nil, 0) })
	expectPanic("negative batch", func() { c.SampleForcedBatch([]int{1}, -3) })
	expectPanic("negative phi", func() { c.SampleRound(2, -1) })
	expectPanic("long prefix", func() { c.SampleForcedBatch(make([]int, 7), 2) })
	expectPanic("long round prefix", func() { c.SampleRound(7, 2) })
	expectPanic("bad forced action", func() { c.SampleForcedBatch([]int{99}, 2) })
	eps := c.SampleRound(0, 2)
	expectPanic("advantage count", func() { c.AccumulateMaskedBatch(eps, []float64{1}, 1, 1, nil) })
	expectPanic("credit count", func() { c.AccumulateRound(eps, []Credit{{Adv: 1, Scale: 1}}, 1) })
	expectPanic("mask length", func() { c.AccumulateMaskedBatch(eps, []float64{1, 1, 1}, 1, 1, []bool{true}) })
	expectPanic("episode length", func() { c.Accumulate(&Episode{Actions: []int{0}}, 1, 1, 1) })

	// Empty accumulation is a no-op, matching a zero-iteration loop.
	c.AccumulateRound(nil, nil, 1)
	c.AccumulateMaskedBatch(nil, nil, 1, 1, nil)
	for _, p := range c.Params() {
		if n := p.GradNorm(); n != 0 {
			t.Errorf("empty-batch accumulate touched %s (grad norm %g)", p.Name, n)
		}
	}
}
