// Package rl implements the multi-task co-exploration controller of §IV-①:
// a recurrent (LSTM) policy that predicts, in one rollout, the
// hyperparameters of every DNN in the workload followed by the design
// parameters of every sub-accelerator (Fig. 5), trained with the Monte Carlo
// policy gradient of Eq. (1).
package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// DecisionSpec describes one controller output slot: a categorical decision
// with NumOptions choices. The flat decision list is the concatenation of
// the controller's segments — first the m DNN segments, then the k
// sub-accelerator segments.
type DecisionSpec struct {
	Name       string
	NumOptions int
}

// Controller is the REINFORCE-trained RNN policy.
type Controller struct {
	// EntropyCoef adds an entropy bonus to the policy-gradient objective,
	// discouraging premature collapse of the sampling distribution. Zero
	// disables it (the paper's plain REINFORCE).
	EntropyCoef float64

	specs  []DecisionSpec
	hidden int

	lstm   *nn.LSTM
	heads  []*nn.Linear // per-decision logit head
	embeds []*nn.Param  // per-decision input embedding (hidden × options)
	start  *nn.Param    // learned initial input (hidden × 1)

	rng *stats.RNG
}

// NewController builds a controller for the given decision sequence.
func NewController(specs []DecisionSpec, hidden int, rng *stats.RNG) *Controller {
	if len(specs) == 0 {
		panic("rl: controller needs at least one decision")
	}
	if hidden <= 0 {
		panic("rl: hidden size must be positive")
	}
	init := func(p *nn.Param) { p.InitXavier(rng) }
	c := &Controller{
		specs:  append([]DecisionSpec(nil), specs...),
		hidden: hidden,
		lstm:   nn.NewLSTM(hidden, hidden, init),
		start:  nn.NewParam("start", hidden, 1),
		rng:    rng,
	}
	c.start.InitXavier(rng)
	for _, s := range specs {
		if s.NumOptions <= 0 {
			panic(fmt.Sprintf("rl: decision %s has no options", s.Name))
		}
		c.heads = append(c.heads, nn.NewLinear(fmt.Sprintf("head.%s", s.Name), hidden, s.NumOptions, init))
		e := nn.NewParam(fmt.Sprintf("embed.%s", s.Name), hidden, s.NumOptions)
		e.InitXavier(rng)
		c.embeds = append(c.embeds, e)
	}
	return c
}

// NumDecisions returns the rollout length T.
func (c *Controller) NumDecisions() int { return len(c.specs) }

// Specs returns a copy of the decision list.
func (c *Controller) Specs() []DecisionSpec { return append([]DecisionSpec(nil), c.specs...) }

// Params returns every trainable parameter.
func (c *Controller) Params() []*nn.Param {
	ps := []*nn.Param{c.start}
	ps = append(ps, c.lstm.Params()...)
	for i := range c.heads {
		ps = append(ps, c.heads[i].Params()...)
		ps = append(ps, c.embeds[i])
	}
	return ps
}

// Episode is one sampled rollout with everything needed for the policy
// gradient.
type Episode struct {
	Actions []int
	Logits  [][]float64

	caches []*nn.LSTMCache
	hs     [][]float64 // h_t fed to head t
}

// Sample draws one rollout a_1..a_T from the current policy.
func (c *Controller) Sample() *Episode {
	ep := &Episode{
		Actions: make([]int, len(c.specs)),
		Logits:  make([][]float64, len(c.specs)),
		caches:  make([]*nn.LSTMCache, len(c.specs)),
		hs:      make([][]float64, len(c.specs)),
	}
	state := c.lstm.ZeroState()
	x := c.start.Val.Col(0)
	for t := range c.specs {
		var cache *nn.LSTMCache
		state, cache = c.lstm.Forward(x, state)
		logits := c.heads[t].Forward(state.H)
		a := c.rng.Categorical(nn.Softmax(logits))
		ep.Actions[t] = a
		ep.Logits[t] = logits
		ep.caches[t] = cache
		ep.hs[t] = state.H
		x = c.embeds[t].Val.Col(a)
	}
	return ep
}

// Greedy returns the argmax rollout under the current policy (no sampling).
func (c *Controller) Greedy() []int {
	actions := make([]int, len(c.specs))
	state := c.lstm.ZeroState()
	x := c.start.Val.Col(0)
	for t := range c.specs {
		state, _ = c.lstm.Forward(x, state)
		logits := c.heads[t].Forward(state.H)
		actions[t] = stats.ArgMax(logits)
		x = c.embeds[t].Val.Col(actions[t])
	}
	return actions
}

// LogProb returns Σ_t log π(a_t) of an episode (from its recorded logits).
func (ep *Episode) LogProb() float64 {
	var lp float64
	for t, logits := range ep.Logits {
		p := nn.Softmax(logits)
		lp += logProb(p[ep.Actions[t]])
	}
	return lp
}

func logProb(p float64) float64 {
	if p < 1e-300 {
		p = 1e-300
	}
	return mathLog(p)
}

// Accumulate adds the REINFORCE gradient of one episode into the parameter
// gradient buffers following Eq. (1): each step t receives the advantage
// (reward − baseline) discounted by gamma^(T−t), and the whole episode is
// scaled by batchScale = 1/m. Callers run Accumulate for every episode in a
// batch and then Update once.
func (c *Controller) Accumulate(ep *Episode, advantage, gamma, batchScale float64) {
	c.AccumulateMasked(ep, advantage, gamma, batchScale, nil)
}

// AccumulateMasked is Accumulate with a per-step credit mask: steps with
// active[t]=false receive no policy-gradient signal (their actions were
// forced, not chosen — the optimizer selector's switch semantics). A nil
// mask activates every step.
func (c *Controller) AccumulateMasked(ep *Episode, advantage, gamma, batchScale float64, active []bool) {
	T := len(c.specs)
	if len(ep.Actions) != T {
		panic("rl: episode length mismatch")
	}
	if active != nil && len(active) != T {
		panic("rl: mask length mismatch")
	}
	dhNext := make([]float64, c.hidden)
	var dcNext []float64

	for t := T - 1; t >= 0; t-- {
		scale := advantage * batchScale * pow(gamma, float64(T-1-t))
		if active != nil && !active[t] {
			scale = 0
		}
		dlogits := nn.ScaleVec(nn.LogPGrad(ep.Logits[t], ep.Actions[t]), scale)
		if c.EntropyCoef > 0 && (active == nil || active[t]) {
			// Gradient of −coef·H(π) w.r.t. logits: coef·p_i(log p_i + H).
			p := nn.Softmax(ep.Logits[t])
			h := nn.Entropy(p)
			for i := range dlogits {
				dlogits[i] += c.EntropyCoef * batchScale * p[i] * (mathLog(p[i]+1e-12) + h)
			}
		}
		dh := c.heads[t].Backward(dlogits, ep.hs[t])
		nn.AccumVec(dh, dhNext)
		dx, dPrev := c.lstm.Backward(dh, dcNext, ep.caches[t])
		dhNext, dcNext = dPrev.H, dPrev.C
		if t == 0 {
			c.start.Grad.AddCol(0, dx)
		} else {
			c.embeds[t-1].Grad.AddCol(ep.Actions[t-1], dx)
		}
	}
}

// Update applies one optimizer step and clears the gradients.
func (c *Controller) Update(opt *nn.RMSProp) {
	params := c.Params()
	opt.Step(params)
	for _, p := range params {
		p.ZeroGrad()
	}
	nn.CheckFinite(params)
}

// Probs returns the per-step action distributions along the greedy path —
// useful for inspecting convergence.
func (c *Controller) Probs() [][]float64 {
	out := make([][]float64, len(c.specs))
	state := c.lstm.ZeroState()
	x := c.start.Val.Col(0)
	for t := range c.specs {
		state, _ = c.lstm.Forward(x, state)
		p := nn.Softmax(c.heads[t].Forward(state.H))
		out[t] = p
		x = c.embeds[t].Val.Col(stats.ArgMax(p))
	}
	return out
}
