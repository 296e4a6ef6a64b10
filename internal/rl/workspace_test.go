package rl

import (
	"fmt"
	"math"
	"testing"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// The workspace pads every batch to a multiple of 4 columns and reuses its
// buffers across rounds of different widths. These tests pin that neither
// changes a bit (every sample width 1–17, so every residue mod 4 and mod 8,
// and the train widths with and without a replay column), that the entry
// points the benchmark trace drives keep two samplings and a replay alive
// across rounds, that a warm round allocates no float64 storage, that the
// shared prefix run on one column leaves every record column equal, and
// that the training arena is sized once for a round and its replay.

// w3Specs has the decision geometry of workload W3: 14 architecture
// decisions, then ⟨dataflow, #PEs, NoC bandwidth⟩ for two sub-accelerators.
func w3Specs() []DecisionSpec {
	var specs []DecisionSpec
	for i, n := range []int{6, 6, 3, 6, 3, 6, 3, 6, 6, 3, 6, 3, 6, 3} {
		specs = append(specs, DecisionSpec{Name: fmt.Sprintf("arch%d", i), NumOptions: n})
	}
	for s := 0; s < 2; s++ {
		specs = append(specs,
			DecisionSpec{Name: fmt.Sprintf("aic%d.df", s), NumOptions: 3},
			DecisionSpec{Name: fmt.Sprintf("aic%d.pe", s), NumOptions: 129},
			DecisionSpec{Name: fmt.Sprintf("aic%d.bw", s), NumOptions: 8})
	}
	return specs
}

// refRound is the reference for one round: a combined rollout and phi
// rollouts forced to its first p actions, each stepped on its own.
func (c *Controller) refRound(p, phi int) []*Episode {
	combined := c.refSample(nil)
	eps := []*Episode{combined}
	for i := 0; i < phi; i++ {
		eps = append(eps, c.refSample(combined.Actions[:p]))
	}
	return eps
}

// roundCredits returns the credits of core's train batch for a round of n
// rollouts — the combined rollout, the n masked hardware rollouts — and a
// replay when replay is true.
func roundCredits(n, round int, mask []bool, replay bool) []Credit {
	advs := advsFor(1+n, round)
	credits := []Credit{{Adv: advs[0], Scale: 0.25}}
	for _, adv := range advs[1:] {
		credits = append(credits, Credit{Adv: adv, Scale: 0.25 / float64(n), Mask: mask})
	}
	if replay {
		credits = append(credits, Credit{Adv: 0.6, Scale: 0.25})
	}
	return credits
}

// requireRNGEqual draws once from each controller's RNG: the draws must
// agree.
func requireRNGEqual(t *testing.T, stage string, ref *Controller, others ...*Controller) {
	t.Helper()
	want := ref.rng.Float64()
	for i, c := range others {
		if got := c.rng.Float64(); got != want {
			t.Fatalf("%s: RNG stream %d diverged from the reference: %.17g vs %.17g", stage, i+1, got, want)
		}
	}
}

// requirePadsZero checks that the pad columns of every workspace matrix
// that enters a kernel are zero after a sampling round of n rollouts and a
// BPTT over b episodes: each step's X and H, each dz, the last step's dLog,
// and the flows dy, dx and dH.
func requirePadsZero(t *testing.T, c *Controller, n, b int, stage string) {
	t.Helper()
	check := func(name string, m *nn.Mat, real int) {
		t.Helper()
		for i := 0; i < m.R; i++ {
			for e := real; e < m.C; e++ {
				if v := m.At(i, e); v != 0 {
					t.Fatalf("%s: %s pad column %d of %d (real %d) holds %g", stage, name, e, m.C, real, v)
				}
			}
		}
	}
	ws := &c.ws
	for tt := range ws.rec.steps {
		check(fmt.Sprintf("step %d X", tt), ws.rec.steps[tt].X, n)
		check(fmt.Sprintf("step %d H", tt), ws.rec.steps[tt].H, n)
		check(fmt.Sprintf("step %d dz", tt), ws.dzs[tt], b)
	}
	for name, m := range map[string]*nn.Mat{"dLog": &ws.dLog, "dy": &ws.dy, "dx": &ws.dx, "dH": &ws.dH} {
		check(name, m, b)
	}
}

// TestRoundWidthsMatchReference runs multi-round training at φ = 0…16 on
// three controllers with equal parameters and seeds: the one-episode
// reference; SampleRound + AccumulateRound as core runs them; and the entry
// points as the benchmark trace runs them — Sample and SampleForcedBatch
// alive together, then Accumulate, AccumulateMaskedBatch and Accumulate of
// a replay kept across rounds. Odd rounds replay a detached episode of an
// earlier round, so train widths run with and without the replay column.
// Actions, cached columns, RNG state, gradients and parameters must agree
// bit for bit.
func TestRoundWidthsMatchReference(t *testing.T) {
	mask := []bool{false, false, false, true, true, true}
	const p, hidden = 3, 12
	for phi := 0; phi <= 16; phi++ {
		t.Run(fmt.Sprintf("phi=%d", phi), func(t *testing.T) {
			seed := int64(500 + phi)
			ref := NewController(wideSpecs(), hidden, stats.NewRNG(seed))
			mer := NewController(wideSpecs(), hidden, stats.NewRNG(seed))
			ent := NewController(wideSpecs(), hidden, stats.NewRNG(seed))
			optRef, optMer, optEnt := nn.NewRMSProp(), nn.NewRMSProp(), nn.NewRMSProp()
			for _, c := range []*Controller{ref, mer, ent} {
				c.EntropyCoef = 0.01
			}
			var replayRef, replayMer, replayEnt *Episode
			for round := 0; round < 4; round++ {
				stage := fmt.Sprintf("round %d", round)
				refEps := ref.refRound(p, phi)
				merEps := mer.SampleRound(p, phi)
				combined := ent.Sample()
				entEps := []*Episode{combined}
				if phi > 0 {
					entEps = append(entEps, ent.SampleForcedBatch(combined.Actions[:p], phi)...)
				}
				requireEpisodesEqual(t, refEps, merEps, stage+" SampleRound")
				requireEpisodesEqual(t, refEps, entEps, stage+" Sample+SampleForcedBatch")
				requireRNGEqual(t, stage, ref, mer, ent)

				replay := round%2 == 1
				credits := roundCredits(len(refEps), round, mask, replay)
				refTrain := append([]*Episode{refEps[0]}, refEps...)
				merTrain := append([]*Episode{merEps[0]}, merEps...)
				if replay {
					refTrain, merTrain = append(refTrain, replayRef), append(merTrain, replayMer)
				}
				for e, ep := range refTrain {
					ref.refAccumulate(ep, credits[e], 0.95)
				}
				mer.AccumulateRound(merTrain, credits, 0.95)
				ent.Accumulate(combined, credits[0].Adv, 0.95, credits[0].Scale)
				hwAdvs := make([]float64, len(entEps))
				for i := range hwAdvs {
					hwAdvs[i] = credits[1+i].Adv
				}
				ent.AccumulateMaskedBatch(entEps, hwAdvs, 0.95, credits[1].Scale, mask)
				if replay {
					ent.Accumulate(replayEnt, credits[len(credits)-1].Adv, 0.95, credits[len(credits)-1].Scale)
				}
				requireParamsEqual(t, ref, mer, stage+" AccumulateRound")
				requireParamsEqual(t, ref, ent, stage+" entry-point accumulate")
				requirePadsZero(t, mer, len(merEps), len(merTrain), stage+" round")
				if replay {
					requirePadsZero(t, ent, max(phi, 1), 1, stage+" entry points")
				}

				// Keep an episode for the next rounds' replays: the views of
				// SampleRound are detached, the entry points' already are.
				k := (round + 1) % len(refEps)
				if round%2 == 0 {
					replayRef, replayMer, replayEnt = refEps[k], merEps[k].Detach(), entEps[k]
				}
				ref.Update(optRef)
				mer.Update(optMer)
				ent.Update(optEnt)
				requireParamsEqual(t, ref, mer, stage+" update")
				requireParamsEqual(t, ref, ent, stage+" entry-point update")
			}
		})
	}
}

// TestStaleViewPanics: a view of an earlier round must be neither
// accumulated nor detached — its columns now hold another round's caches.
func TestStaleViewPanics(t *testing.T) {
	c := NewController(wideSpecs(), 8, stats.NewRNG(3))
	old := c.SampleRound(2, 3)
	kept := old[1].Detach()
	c.SampleRound(2, 3)
	c.Accumulate(kept, 1, 1, 1) // a detached episode stays valid
	for name, use := range map[string]func(){
		"accumulate": func() { c.Accumulate(old[1], 1, 1, 1) },
		"detach":     func() { old[1].Detach() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a stale view did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestWarmRoundAllocs pins the allocations of one warm round — SampleRound
// and AccumulateRound over the combined rollout, the φ=10 hardware rollouts
// and a detached replay — to the episode headers and the Actions slab: the
// []*Episode, the []Episode and the []int. No float64 storage is allocated,
// so the count is the same at W3's geometry and at a smaller one.
func TestWarmRoundAllocs(t *testing.T) {
	const phi, want = 10, 3
	small := []DecisionSpec{{"a", 4}, {"b", 2}, {"c", 7}}
	for _, tc := range []struct {
		name   string
		specs  []DecisionSpec
		hidden int
	}{{"W3/hidden=48", w3Specs(), 48}, {"T=3/hidden=8", small, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(tc.specs, tc.hidden, stats.NewRNG(9))
			T := len(tc.specs)
			mask := make([]bool, T)
			for i := T / 2; i < T; i++ {
				mask[i] = true
			}
			replay := c.SampleRound(T/2, phi)[0].Detach()
			credits := roundCredits(1+phi, 0, mask, true)
			train := make([]*Episode, 0, len(credits))
			round := func() {
				eps := c.SampleRound(T/2, phi)
				train = append(append(append(train[:0], eps[0]), eps...), replay)
				c.AccumulateRound(train, credits, 1)
			}
			round()
			if got := testing.AllocsPerRun(20, round); got > want {
				t.Fatalf("warm round made %v allocations, want at most %d", got, want)
			}
		})
	}
}

// requirePrefixColumnsEqual checks that at every step t < p each episode's
// record column — X, the four gates, C, H, TC and the logits — equals
// episode 0's bit for bit.
func requirePrefixColumnsEqual(t *testing.T, eps []*Episode, p int, stage string) {
	t.Helper()
	lead := eps[0]
	for tt := 0; tt < p; tt++ {
		sl := &lead.rec.steps[tt]
		for e, ep := range eps[1:] {
			se := &ep.rec.steps[tt]
			for _, f := range []struct {
				name   string
				ml, me *nn.Mat
			}{
				{"X", sl.X, se.X}, {"I", sl.I, se.I}, {"F", sl.F, se.F}, {"G", sl.G, se.G},
				{"O", sl.O, se.O}, {"C", sl.C, se.C}, {"H", sl.H, se.H}, {"TC", sl.TC, se.TC},
				{"logits", &lead.rec.logits[tt], &ep.rec.logits[tt]},
			} {
				vl, ve := f.ml.Col(lead.col), f.me.Col(ep.col)
				for i := range vl {
					if math.Float64bits(vl[i]) != math.Float64bits(ve[i]) {
						t.Fatalf("%s: step %d episode %d %s[%d] = %.17g, episode 0 has %.17g",
							stage, tt, e+1, f.name, i, ve[i], vl[i])
					}
				}
			}
		}
	}
}

// TestSharedPrefixColumnsEqual covers the shared prefix at W3's geometry:
// every rollout of a round takes the same actions before p, so each step
// t < p has one set of values, which a round more than 4 columns wide
// computes on one column and copies. In lead mode (SampleRound) and forced
// mode (SampleForcedBatch), for p = 0, the architecture prefix and T and
// φ = 0, 2 (4 columns: the n-wide path) and 10 (the one-column path), the
// prefix columns must equal the lead's, and the round the one-episode
// reference, bit for bit.
func TestSharedPrefixColumnsEqual(t *testing.T) {
	specs := w3Specs()
	T := len(specs)
	for _, phi := range []int{0, 2, 10} {
		for _, p := range []int{0, 14, T} {
			t.Run(fmt.Sprintf("phi=%d/p=%d", phi, p), func(t *testing.T) {
				seed := int64(60 + phi + p)
				ref := NewController(specs, 16, stats.NewRNG(seed))
				c := NewController(specs, 16, stats.NewRNG(seed))
				for round := 0; round < 2; round++ {
					stage := fmt.Sprintf("round %d lead", round)
					refEps := ref.refRound(p, phi)
					eps := c.SampleRound(p, phi)
					requirePrefixColumnsEqual(t, eps, p, stage)
					requireEpisodesEqual(t, refEps, eps, stage)

					stage = fmt.Sprintf("round %d forced", round)
					prefix := append([]int(nil), eps[0].Actions[:p]...)
					refForced := make([]*Episode, 1+phi)
					for e := range refForced {
						refForced[e] = ref.refSample(prefix)
					}
					forced := c.SampleForcedBatch(prefix, 1+phi)
					requirePrefixColumnsEqual(t, forced, p, stage)
					requireEpisodesEqual(t, refForced, forced, stage)
					requireRNGEqual(t, stage, ref, c)
				}
			})
		}
	}
}

// TestTrainingArenaAllocatedOnce runs serve-shaped rounds (W3, φ = 2):
// trained without a replay (4 episodes, 4 columns), then with one (5
// episodes, 8 columns). Sampling the first round sizes the training arena
// and the gradient gathers for both, so neither is reallocated after it.
func TestTrainingArenaAllocatedOnce(t *testing.T) {
	const phi, archLen = 2, 14
	c := NewController(w3Specs(), 48, stats.NewRNG(11))
	T := c.NumDecisions()
	mask := make([]bool, T)
	for i := archLen; i < T; i++ {
		mask[i] = true
	}
	eps := c.SampleRound(archLen, phi)
	arena, gathers := &c.ws.trainBuf[0], &c.ws.bptt[:1][0]
	replay := eps[1].Detach()
	for round, withReplay := range []bool{false, true, false, true} {
		if round > 0 {
			eps = c.SampleRound(archLen, phi)
		}
		train := append([]*Episode{eps[0]}, eps...)
		if withReplay {
			train = append(train, replay)
		}
		c.AccumulateRound(train, roundCredits(len(eps), round, mask, withReplay), 1)
		if &c.ws.trainBuf[0] != arena || &c.ws.bptt[:1][0] != gathers {
			t.Fatalf("round %d (%d episodes trained) reallocated the training arena or the gathers", round, len(train))
		}
	}
}

// FuzzRoundMatchesReference checks one round — SampleRound, AccumulateRound
// over the combined rollout and the masked rollouts, and an Update — against
// the one-episode reference, for fuzzed decision counts, option counts,
// hidden sizes, φ, forced-prefix lengths and seeds.
func FuzzRoundMatchesReference(f *testing.F) {
	f.Add(uint8(6), []byte{4, 3, 6, 3, 9, 5}, uint8(12), uint8(10), uint8(3), int64(1))
	f.Add(uint8(1), []byte{2}, uint8(1), uint8(0), uint8(0), int64(2))
	f.Add(uint8(3), []byte{128, 7, 1}, uint8(5), uint8(2), uint8(3), int64(3))
	f.Add(uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(17), uint8(16), uint8(5), int64(-4))
	// p = T = 6 with φ = 7: every step runs on the shared prefix's column.
	f.Add(uint8(5), []byte{3, 5, 2, 9, 4, 6}, uint8(16), uint8(7), uint8(6), int64(5))
	f.Fuzz(func(t *testing.T, tt uint8, opts []byte, hh, pp, prefix uint8, seed int64) {
		T := int(tt%8) + 1
		specs := make([]DecisionSpec, T)
		for i := range specs {
			n := 2
			if len(opts) > 0 {
				n = int(opts[i%len(opts)]%16) + 1
			}
			specs[i] = DecisionSpec{Name: fmt.Sprintf("d%d", i), NumOptions: n}
		}
		hidden, phi, p := int(hh%24)+1, int(pp%17), int(prefix)%(T+1)
		mask := make([]bool, T)
		for i := p; i < T; i++ {
			mask[i] = true
		}
		ref := NewController(specs, hidden, stats.NewRNG(seed))
		mer := NewController(specs, hidden, stats.NewRNG(seed))
		ref.EntropyCoef, mer.EntropyCoef = 0.02, 0.02

		refEps := ref.refRound(p, phi)
		merEps := mer.SampleRound(p, phi)
		requireEpisodesEqual(t, refEps, merEps, "sample")
		requireRNGEqual(t, "sample", ref, mer)

		credits := roundCredits(len(refEps), int(seed%7), mask, false)
		refTrain := append([]*Episode{refEps[0]}, refEps...)
		for e, ep := range refTrain {
			ref.refAccumulate(ep, credits[e], 0.9)
		}
		mer.AccumulateRound(append([]*Episode{merEps[0]}, merEps...), credits, 0.9)
		requireParamsEqual(t, ref, mer, "accumulate")
		ref.Update(nn.NewRMSProp())
		mer.Update(nn.NewRMSProp())
		requireParamsEqual(t, ref, mer, "update")
	})
}
