package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// This file is the controller's one engine. Every rollout and every
// policy-gradient update steps through the LSTM in lockstep, one column per
// episode, on nn's matrix-matrix kernels; a single episode is a one-column
// batch. sampleBatch is the one sampler and AccumulateRound the one BPTT.
// The exported Sample, SampleForcedBatch, Accumulate and
// AccumulateMaskedBatch are thin entries into them.
//
// The width of a batch never changes a bit of the result, which the
// differential tests (differential_test.go) check against a one-episode,
// one-column reference (reference_test.go):
//
//   - sampleBatch pre-draws its uniforms from the controller RNG in the
//     order one-episode rollouts would consume them (episode-major, one
//     draw per sampled step) and feeds them to stats.CategoricalU, so
//     actions and the RNG state afterwards match draw for draw.
//   - nn's batched kernels are bit-identical per column to the
//     matrix-vector reference (see internal/nn).
//   - AccumulateRound computes the backward flows batched, but adds the
//     parameter gradients episode-major with t descending: the exact
//     floating-point add order of one Accumulate call per episode.

// Sample draws one rollout a_1..a_T from the current policy.
func (c *Controller) Sample() *Episode { return c.sampleBatch(nil, 0, 1)[0] }

// SampleForcedBatch draws b rollouts whose first len(prefix) actions are all
// forced to the given values (the optimizer selector's SA=0, SH=1 mode).
func (c *Controller) SampleForcedBatch(prefix []int, b int) []*Episode {
	return c.sampleBatch(prefix, len(prefix), b)
}

// SampleRound draws the 1+phi rollouts of one NASAIC episode in one lockstep
// pass. Episode 0 is the combined rollout (SA=SH=1) and samples every step.
// Episodes 1..phi are the hardware-only rollouts (SA=0, SH=1): at each step
// t < p they take episode 0's action, and they sample the steps after it.
// The episodes and the RNG state afterwards are bit-identical to Sample
// followed by SampleForcedBatch(first p actions of that sample, phi).
func (c *Controller) SampleRound(p, phi int) []*Episode {
	return c.sampleBatch(nil, p, 1+phi)
}

// sampleBatch steps n rollouts in lockstep. Rollouts take a forced action at
// each step t < p and sample the rest. The forced actions are prefix; a nil
// prefix selects lead mode, in which rollout 0 samples every step and the
// others copy its actions. Uniforms are drawn up front, rollout-major: T for
// a lead rollout, T−p for each forced one.
func (c *Controller) sampleBatch(prefix []int, p, n int) []*Episode {
	if n <= 0 {
		panic("rl: batch size must be positive")
	}
	T := len(c.specs)
	if p < 0 || p > T {
		panic("rl: forced prefix longer than rollout")
	}
	lead := 0
	if prefix == nil {
		lead = 1
	}
	us := make([]float64, lead*T+(n-lead)*(T-p))
	for i := range us {
		us[i] = c.rng.Float64()
	}
	// draw returns rollout e's uniform for sampled step t.
	draw := func(e, t int) float64 {
		if e < lead {
			return us[t]
		}
		return us[lead*T+(e-lead)*(T-p)+(t-p)]
	}

	eps := make([]*Episode, n)
	for e := range eps {
		eps[e] = &Episode{
			Actions: make([]int, T),
			Logits:  make([][]float64, T),
			caches:  make([]*nn.LSTMCache, T),
			hs:      make([][]float64, T),
		}
	}
	if prefix == nil {
		prefix = eps[0].Actions // filled in step by step, before it is read
	}

	state := c.lstm.ZeroBatchState(n)
	x := nn.NewMat(c.hidden, n)
	for e := 0; e < n; e++ {
		x.CopyColFrom(e, c.start.Val, 0)
	}
	for t := 0; t < T; t++ {
		var cacheB *nn.LSTMBatchCache
		state, cacheB = c.lstm.ForwardBatch(x, state)
		logitsB := c.heads[t].ForwardBatch(state.H)
		caches := cacheB.SeqCaches()
		for e := 0; e < n; e++ {
			logits := logitsB.Col(e)
			var a int
			if e >= lead && t < p {
				a = prefix[t]
				if a < 0 || a >= c.specs[t].NumOptions {
					panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
				}
			} else {
				a = stats.CategoricalU(draw(e, t), nn.Softmax(logits))
			}
			eps[e].Actions[t] = a
			eps[e].Logits[t] = logits
			eps[e].caches[t] = caches[e]
			eps[e].hs[t] = caches[e].H
		}
		// Next step's input: each episode's chosen embedding column. The
		// per-sequence caches hold copies, so overwriting x here is safe.
		for e := 0; e < n; e++ {
			x.CopyColFrom(e, c.embeds[t].Val, eps[e].Actions[t])
		}
	}
	return eps
}

// Credit is the policy-gradient credit of one episode (Eq. 1): step t's
// logit gradient is scaled by Adv·Scale·γ^(T−1−t) and its entropy bonus by
// Scale. Steps with Mask[t] false get neither — their actions were forced,
// not chosen (the optimizer selector's switch semantics). A nil Mask
// credits every step.
type Credit struct {
	Adv, Scale float64
	Mask       []bool
}

// Accumulate adds the REINFORCE gradient of one episode into the parameter
// gradient buffers following Eq. (1): each step t receives the advantage
// (reward − baseline) discounted by gamma^(T−1−t), and the whole episode is
// scaled by batchScale = 1/m. Callers accumulate every episode of a batch
// and then Update once.
func (c *Controller) Accumulate(ep *Episode, advantage, gamma, batchScale float64) {
	c.AccumulateRound([]*Episode{ep}, []Credit{{Adv: advantage, Scale: batchScale}}, gamma)
}

// AccumulateMaskedBatch accumulates a batch of episodes with per-episode
// advantages, one scale and one step mask (nil activates every step). The
// episodes may come from any of the samplers.
func (c *Controller) AccumulateMaskedBatch(eps []*Episode, advs []float64, gamma, batchScale float64, active []bool) {
	if len(advs) != len(eps) {
		panic("rl: advantage count mismatch")
	}
	credits := make([]Credit, len(eps))
	for i, adv := range advs {
		credits[i] = Credit{Adv: adv, Scale: batchScale, Mask: active}
	}
	c.AccumulateRound(eps, credits, gamma)
}

// AccumulateRound adds the REINFORCE gradients of a set of episodes, episode
// e under credits[e], in one lockstep BPTT. The gradients are bit-identical
// to one Accumulate-style pass per episode in slice order; an episode may
// appear more than once.
func (c *Controller) AccumulateRound(eps []*Episode, credits []Credit, gamma float64) {
	b := len(eps)
	if b == 0 {
		return
	}
	T := len(c.specs)
	if len(credits) != b {
		panic("rl: credit count mismatch")
	}
	for e, ep := range eps {
		if len(ep.Actions) != T {
			panic("rl: episode length mismatch")
		}
		if m := credits[e].Mask; m != nil && len(m) != T {
			panic("rl: mask length mismatch")
		}
	}

	// Phase 1 — lockstep BPTT. Only the gradient *flows* (dh, dc, dx) are
	// computed here, through the batched matrix-matrix kernels; the
	// per-(episode, step) pre-activation gradients are retained for phase 2.
	dlogits := make([][][]float64, T) // [t][e] logit gradients
	dzs := make([]*nn.Mat, T)         // [t] 4H×B gate pre-activation grads
	dxs := make([]*nn.Mat, T)         // [t] H×B input grads
	caches := make([]*nn.LSTMCache, b)

	dH := nn.NewMat(c.hidden, b)
	var dC *nn.Mat
	for t := T - 1; t >= 0; t-- {
		disc := pow(gamma, float64(T-1-t))
		opts := c.specs[t].NumOptions
		dLog := nn.NewMat(opts, b)
		dlog := make([][]float64, b)
		for e := 0; e < b; e++ {
			cr := credits[e]
			active := cr.Mask == nil || cr.Mask[t]
			scale := cr.Adv * cr.Scale * disc
			if !active {
				scale = 0
			}
			dl := nn.LogPGrad(eps[e].Logits[t], eps[e].Actions[t])
			for i := range dl {
				dl[i] *= scale
			}
			if c.EntropyCoef > 0 && active {
				// Gradient of −coef·H(π) w.r.t. logits: coef·p_i(log p_i + H).
				p := nn.Softmax(eps[e].Logits[t])
				h := nn.Entropy(p)
				for i := range dl {
					dl[i] += c.EntropyCoef * cr.Scale * p[i] * (mathLog(p[i]+1e-12) + h)
				}
			}
			dlog[e] = dl
			dLog.SetCol(e, dl)
		}
		dlogits[t] = dlog

		dh := c.heads[t].BackwardBatchFlows(dLog)
		dh.Add(dH) // the head's dh plus the flow from step t+1, per column
		for e := range eps {
			caches[e] = eps[e].caches[t]
		}
		var dz, dx *nn.Mat
		var dPrev nn.LSTMBatchState
		dz, dx, dPrev = c.lstm.BackwardBatch(dh, dC, caches)
		dzs[t], dxs[t] = dz, dx
		dH, dC = dPrev.H, dPrev.C
	}

	// Phase 2 — replay the parameter-gradient accumulation episode-major
	// with t descending: the exact add order of one pass per episode, so the
	// gradients do not depend on how episodes are batched (floating-point
	// addition is not associative; order is part of the contract). The LSTM
	// weights take the blocked whole-batch path (one walk over each
	// gradient matrix); heads, start and embeddings are small and replay
	// per step.
	xs := make([][]float64, b*T)
	hps := make([][]float64, b*T)
	k := 0
	for e := 0; e < b; e++ {
		for t := T - 1; t >= 0; t-- {
			xs[k] = eps[e].caches[t].X
			hps[k] = eps[e].caches[t].HPrev
			k++
		}
	}
	c.lstm.AccumBPTTGrads(dzs, xs, hps)

	dxcol := make([]float64, c.hidden)
	for e := 0; e < b; e++ {
		ep := eps[e]
		for t := T - 1; t >= 0; t-- {
			c.heads[t].AccumStepGrads(dlogits[t][e], ep.hs[t])
			dxs[t].ColInto(dxcol, e)
			if t == 0 {
				c.start.Grad.AddCol(0, dxcol)
			} else {
				c.embeds[t-1].Grad.AddCol(ep.Actions[t-1], dxcol)
			}
		}
	}
}
