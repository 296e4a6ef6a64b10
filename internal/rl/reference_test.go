package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// This file is the one-episode reference for the controller's engine: a
// rollout and a policy-gradient pass that step one episode at a time on
// unpadded one-column matrices (which internal/nn pins, bit for bit, to its
// matrix-vector reference), so the kernels run their scalar column path
// where the engine runs padded 8- and 4-column blocks. The gradient adds are
// spelled out per step — AddOuter for the LSTM weights, in Backward's order —
// rather than going through AccumBPTTGrads, so the differential tests check
// the engine's whole-batch replay against the order it must keep.

// refRollout steps one rollout. Steps t < len(prefix) take prefix[t]; every
// other step takes pick(logits). The episode owns its one-column record.
func (c *Controller) refRollout(prefix []int, pick func(logits []float64) int) *Episode {
	if len(prefix) > len(c.specs) {
		panic("rl: forced prefix longer than rollout")
	}
	T := len(c.specs)
	rec := &record{}
	rec.layout(&c.shape, 1, make([]float64, c.shape.recordLen(1)))
	zx, zh := nn.NewMat(4*c.shape.hidden, 1), nn.NewMat(4*c.shape.hidden, 1)
	ep := &Episode{Actions: make([]int, T), rec: rec}
	for t := 0; t < T; t++ {
		st := &rec.steps[t]
		if t == 0 {
			st.X.CopyColFrom(0, c.start.Val, 0)
		} else {
			st.X.CopyColFrom(0, c.embeds[t-1].Val, ep.Actions[t-1])
		}
		c.lstm.ForwardBatch(st, 1, zx, zh)
		c.heads[t].ForwardBatch(&rec.logits[t], st.H, 1)
		var a int
		if t < len(prefix) {
			a = prefix[t]
			if a < 0 || a >= c.specs[t].NumOptions {
				panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
			}
		} else {
			a = pick(rec.logits[t].Col(0))
		}
		ep.Actions[t] = a
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

// logits returns a copy of the episode's step-t logits.
func (ep *Episode) logits(t int) []float64 { return ep.rec.logits[t].Col(ep.col) }

// refAccumulate is the reference for one episode's policy-gradient pass
// under one credit. The episode may be a view of any record.
func (c *Controller) refAccumulate(ep *Episode, cr Credit, gamma float64) {
	T := len(c.specs)
	if len(ep.Actions) != T {
		panic("rl: episode length mismatch")
	}
	if cr.Mask != nil && len(cr.Mask) != T {
		panic("rl: mask length mismatch")
	}
	seq := []nn.SeqRef{{Steps: ep.rec.steps, Col: ep.col}}
	dH, dC := nn.NewMat(c.shape.hidden, 1), nn.NewMat(c.shape.hidden, 1)
	dy, dx, dz := nn.NewMat(c.shape.hidden, 1), nn.NewMat(c.shape.hidden, 1), nn.NewMat(4*c.shape.hidden, 1)
	for t := T - 1; t >= 0; t-- {
		active := cr.Mask == nil || cr.Mask[t]
		scale := cr.Adv * cr.Scale * pow(gamma, float64(T-1-t))
		if !active {
			scale = 0
		}
		dl := nn.LogPGrad(ep.logits(t), ep.Actions[t])
		for i := range dl {
			dl[i] *= scale
		}
		if c.EntropyCoef > 0 && active {
			p := nn.Softmax(ep.logits(t))
			h := nn.Entropy(p)
			for i := range dl {
				dl[i] += c.EntropyCoef * cr.Scale * p[i] * (mathLog(p[i]+1e-12) + h)
			}
		}
		st := &ep.rec.steps[t]
		c.heads[t].AccumStepGrads(dl, st.H.Col(ep.col))
		dLog := nn.NewMat(len(dl), 1)
		dLog.SetCol(0, dl)
		c.heads[t].BackwardBatchFlows(dy, dLog)
		dH.Add(dy)

		c.lstm.BackwardBatch(t, seq, dz, dx, dH, dC, t < T-1)
		dzc := dz.Col(0)
		c.lstm.Wx.Grad.AddOuter(dzc, st.X.Col(ep.col))
		c.lstm.Wh.Grad.AddOuter(dzc, st.HPrev.Col(ep.col))
		for i, v := range dzc {
			c.lstm.B.Grad.W[i] += v
		}
		if t == 0 {
			c.start.Grad.AddCol(0, dx.Col(0))
		} else {
			c.embeds[t-1].Grad.AddCol(ep.Actions[t-1], dx.Col(0))
		}
	}
}
