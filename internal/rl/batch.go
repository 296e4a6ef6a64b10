package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// This file is the controller's batched fast path: the B episodes of one
// policy-gradient batch step through the LSTM in lockstep as a column block
// (nn's matrix-matrix kernels) instead of B separate matrix-vector rollouts.
//
// Bit-identity with the sequential path is a hard invariant, enforced by
// differential_test.go:
//
//   - SampleBatch pre-draws its uniforms from the controller RNG in the
//     exact order B sequential Sample calls would (episode-major), then
//     feeds them to stats.CategoricalU, so actions and the post-batch RNG
//     state match draw-for-draw.
//   - The lockstep forward/backward kernels are bit-identical per column to
//     their sequential counterparts (see internal/nn).
//   - AccumulateBatch computes the backward *flows* batched, but replays the
//     parameter-gradient accumulation episode-major with t descending — the
//     exact floating-point add order of B sequential Accumulate calls.

// SampleBatch draws b independent rollouts from the current policy in one
// lockstep pass. The episodes — actions, logits, caches — and the
// controller's RNG state afterwards are bit-identical to b sequential
// Sample calls.
func (c *Controller) SampleBatch(b int) []*Episode {
	return c.sampleBatch(nil, b)
}

// SampleForcedBatch draws b rollouts whose first len(prefix) actions are all
// forced to the given values (the optimizer selector's SA=0, SH=1 mode),
// bit-identical to b sequential forced rollouts (the reference in
// reference_test.go).
func (c *Controller) SampleForcedBatch(prefix []int, b int) []*Episode {
	if len(prefix) > len(c.specs) {
		panic("rl: forced prefix longer than rollout")
	}
	return c.sampleBatch(prefix, b)
}

func (c *Controller) sampleBatch(prefix []int, b int) []*Episode {
	if b <= 0 {
		panic("rl: batch size must be positive")
	}
	T := len(c.specs)
	P := len(prefix)

	// Pre-draw the uniforms episode-major: episode e's step-t draw is
	// u[e*draws + (t-P)], exactly the order b sequential rollouts would
	// consume the stream in (each sequential rollout draws once per
	// non-forced step, in step order).
	draws := T - P
	us := make([]float64, b*draws)
	for i := range us {
		us[i] = c.rng.Float64()
	}

	eps := make([]*Episode, b)
	for e := range eps {
		eps[e] = &Episode{
			Actions: make([]int, T),
			Logits:  make([][]float64, T),
			caches:  make([]*nn.LSTMCache, T),
			hs:      make([][]float64, T),
		}
	}

	state := c.lstm.ZeroBatchState(b)
	x := nn.NewMat(c.hidden, b)
	for e := 0; e < b; e++ {
		x.CopyColFrom(e, c.start.Val, 0)
	}
	for t := 0; t < T; t++ {
		var cacheB *nn.LSTMBatchCache
		state, cacheB = c.lstm.ForwardBatch(x, state)
		logitsB := c.heads[t].ForwardBatch(state.H)
		caches := cacheB.SeqCaches()
		for e := 0; e < b; e++ {
			logits := logitsB.Col(e)
			var a int
			if t < P {
				a = prefix[t]
				if a < 0 || a >= c.specs[t].NumOptions {
					panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
				}
			} else {
				a = stats.CategoricalU(us[e*draws+(t-P)], nn.Softmax(logits))
			}
			eps[e].Actions[t] = a
			eps[e].Logits[t] = logits
			eps[e].caches[t] = caches[e]
			eps[e].hs[t] = caches[e].H
		}
		// Next step's input: each episode's chosen embedding column. The
		// per-sequence caches hold copies, so overwriting x here is safe.
		for e := 0; e < b; e++ {
			x.CopyColFrom(e, c.embeds[t].Val, eps[e].Actions[t])
		}
	}
	return eps
}

// AccumulateBatch adds the REINFORCE gradients of a batch of episodes with
// per-episode advantages, bit-identical to calling Accumulate(eps[i],
// advs[i], gamma, batchScale) for i = 0..len(eps)-1 in order.
func (c *Controller) AccumulateBatch(eps []*Episode, advs []float64, gamma, batchScale float64) {
	c.AccumulateMaskedBatch(eps, advs, gamma, batchScale, nil)
}

// AccumulateMaskedBatch is AccumulateBatch with the per-step credit mask of
// AccumulateMasked applied to every episode. The episodes may come from any
// mix of Sample and the batched samplers.
func (c *Controller) AccumulateMaskedBatch(eps []*Episode, advs []float64, gamma, batchScale float64, active []bool) {
	b := len(eps)
	if b == 0 {
		return
	}
	T := len(c.specs)
	if len(advs) != b {
		panic("rl: advantage count mismatch")
	}
	for _, ep := range eps {
		if len(ep.Actions) != T {
			panic("rl: episode length mismatch")
		}
	}
	if active != nil && len(active) != T {
		panic("rl: mask length mismatch")
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
			scale := advs[e] * batchScale * disc
			if active != nil && !active[t] {
				scale = 0
			}
			dl := nn.ScaleVec(nn.LogPGrad(eps[e].Logits[t], eps[e].Actions[t]), scale)
			if c.EntropyCoef > 0 && (active == nil || active[t]) {
				// Gradient of −coef·H(π) w.r.t. logits: coef·p_i(log p_i + H).
				p := nn.Softmax(eps[e].Logits[t])
				h := nn.Entropy(p)
				for i := range dl {
					dl[i] += c.EntropyCoef * batchScale * p[i] * (mathLog(p[i]+1e-12) + h)
				}
			}
			dlog[e] = dl
			dLog.SetCol(e, dl)
		}
		dlogits[t] = dlog

		dh := c.heads[t].BackwardBatchFlows(dLog)
		dh.Add(dH) // matches AccumVec(dh, dhNext) per column
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
	// with t descending: the exact add order of len(eps) sequential
	// Accumulate calls, so batched training is bit-identical (floating-point
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
