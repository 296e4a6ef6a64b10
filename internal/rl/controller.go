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

// Update applies one optimizer step and clears the gradients.
func (c *Controller) Update(opt *nn.RMSProp) {
	params := c.Params()
	opt.Step(params)
	for _, p := range params {
		p.ZeroGrad()
	}
	nn.CheckFinite(params)
}
