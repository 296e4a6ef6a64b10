package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// This file is the one-episode reference for the controller's engine: a
// rollout and a policy-gradient pass that step one episode at a time on
// one-column batches (which internal/nn pins, bit for bit, to its
// matrix-vector reference). The gradient adds are spelled out per step —
// AddOuter for the LSTM weights, in Backward's order — rather than going
// through AccumBPTTGrads, so the differential tests check the engine's
// whole-batch replay against the order it must keep.

// refRollout steps one rollout. Steps t < len(prefix) take prefix[t]; every
// other step takes pick(logits).
func (c *Controller) refRollout(prefix []int, pick func(logits []float64) int) *Episode {
	if len(prefix) > len(c.specs) {
		panic("rl: forced prefix longer than rollout")
	}
	T := len(c.specs)
	ep := &Episode{
		Actions: make([]int, T),
		Logits:  make([][]float64, T),
		caches:  make([]*nn.LSTMCache, T),
		hs:      make([][]float64, T),
	}
	state := c.lstm.ZeroBatchState(1)
	x := nn.NewMat(c.hidden, 1)
	x.CopyColFrom(0, c.start.Val, 0)
	for t := 0; t < T; t++ {
		var cacheB *nn.LSTMBatchCache
		state, cacheB = c.lstm.ForwardBatch(x, state)
		logits := c.heads[t].ForwardBatch(state.H).Col(0)
		var a int
		if t < len(prefix) {
			a = prefix[t]
			if a < 0 || a >= c.specs[t].NumOptions {
				panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
			}
		} else {
			a = pick(logits)
		}
		cache := cacheB.SeqCaches()[0]
		ep.Actions[t] = a
		ep.Logits[t] = logits
		ep.caches[t] = cache
		ep.hs[t] = cache.H
		x = nn.NewMat(c.hidden, 1)
		x.CopyColFrom(0, c.embeds[t].Val, a)
	}
	return ep
}

// refSample is the reference for one sampled rollout with a forced prefix
// (nil for none): one RNG draw per sampled step, in step order.
func (c *Controller) refSample(prefix []int) *Episode {
	return c.refRollout(prefix, func(logits []float64) int {
		return c.rng.Categorical(nn.Softmax(logits))
	})
}

// greedy returns the argmax rollout under the current policy (no sampling).
func (c *Controller) greedy() *Episode {
	return c.refRollout(nil, stats.ArgMax)
}

// refAccumulate is the reference for one episode's policy-gradient pass
// under one credit.
func (c *Controller) refAccumulate(ep *Episode, cr Credit, gamma float64) {
	T := len(c.specs)
	if len(ep.Actions) != T {
		panic("rl: episode length mismatch")
	}
	if cr.Mask != nil && len(cr.Mask) != T {
		panic("rl: mask length mismatch")
	}
	dhNext := nn.NewMat(c.hidden, 1)
	var dcNext *nn.Mat
	for t := T - 1; t >= 0; t-- {
		active := cr.Mask == nil || cr.Mask[t]
		scale := cr.Adv * cr.Scale * pow(gamma, float64(T-1-t))
		if !active {
			scale = 0
		}
		dl := nn.LogPGrad(ep.Logits[t], ep.Actions[t])
		for i := range dl {
			dl[i] *= scale
		}
		if c.EntropyCoef > 0 && active {
			p := nn.Softmax(ep.Logits[t])
			h := nn.Entropy(p)
			for i := range dl {
				dl[i] += c.EntropyCoef * cr.Scale * p[i] * (mathLog(p[i]+1e-12) + h)
			}
		}
		c.heads[t].AccumStepGrads(dl, ep.hs[t])
		dLog := nn.NewMat(len(dl), 1)
		dLog.SetCol(0, dl)
		dh := c.heads[t].BackwardBatchFlows(dLog)
		dh.Add(dhNext)

		cache := ep.caches[t]
		dz, dx, dPrev := c.lstm.BackwardBatch(dh, dcNext, []*nn.LSTMCache{cache})
		dzc := dz.Col(0)
		c.lstm.Wx.Grad.AddOuter(dzc, cache.X)
		c.lstm.Wh.Grad.AddOuter(dzc, cache.HPrev)
		for i, v := range dzc {
			c.lstm.B.Grad.W[i] += v
		}
		if t == 0 {
			c.start.Grad.AddCol(0, dx.Col(0))
		} else {
			c.embeds[t-1].Grad.AddCol(ep.Actions[t-1], dx.Col(0))
		}
		dhNext, dcNext = dPrev.H, dPrev.C
	}
}
