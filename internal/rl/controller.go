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

	specs []DecisionSpec
	shape shape

	lstm   *nn.LSTM
	heads  []*nn.Linear // per-decision logit head
	embeds []*nn.Param  // per-decision input embedding (hidden × options)
	start  *nn.Param    // learned initial input (hidden × 1)
	params []*nn.Param  // every parameter above, in Params order

	rng *stats.RNG
	ws  workspace
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
		specs: append([]DecisionSpec(nil), specs...),
		shape: shape{hidden: hidden},
		lstm:  nn.NewLSTM(hidden, hidden, init),
		start: nn.NewParam("start", hidden, 1),
		rng:   rng,
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
		c.shape.opts = append(c.shape.opts, s.NumOptions)
	}
	c.params = append([]*nn.Param{c.start}, c.lstm.Params()...)
	for i := range c.heads {
		c.params = append(c.params, c.heads[i].Params()...)
		c.params = append(c.params, c.embeds[i])
	}
	c.ws.init(&c.shape)
	return c
}

// NumDecisions returns the rollout length T.
func (c *Controller) NumDecisions() int { return len(c.specs) }

// Specs returns a copy of the decision list.
func (c *Controller) Specs() []DecisionSpec { return append([]DecisionSpec(nil), c.specs...) }

// Params returns every trainable parameter.
func (c *Controller) Params() []*nn.Param { return append([]*nn.Param(nil), c.params...) }

// Episode is one sampled rollout: its actions, and its column of the forward
// record — every step's logits and LSTM caches — that the policy gradient
// backpropagates through.
//
// The episodes of SampleRound are views: their record is the controller's
// workspace, which the next SampleRound (or Sample, or SampleForcedBatch)
// overwrites, so a view stays valid until then; accumulating or detaching it
// later panics. Detach copies an episode out to keep it across rounds.
type Episode struct {
	Actions []int

	rec *record
	col int
	gen uint64 // the record's gen when the episode was sampled
}

// checkLive panics unless ep's record still holds the round it was sampled
// in.
func (ep *Episode) checkLive() {
	if ep.rec == nil {
		panic("rl: episode has no forward record")
	}
	if ep.gen != ep.rec.gen {
		panic("rl: stale episode view: a later sampling round overwrote it; Detach episodes kept across rounds")
	}
}

// Detach returns a copy of ep that owns its actions, logits and forward
// caches, so it stays valid across rounds: replay backpropagates through the
// caches of the round the episode was sampled in, not the current policy's.
func (ep *Episode) Detach() *Episode {
	ep.checkLive()
	src := ep.rec
	rec := &record{}
	rec.layout(src.shape, 1, make([]float64, src.shape.recordLen(1)))
	for t := range src.steps {
		s, d := &src.steps[t], &rec.steps[t]
		for _, m := range [...][2]*nn.Mat{{d.X, s.X}, {d.I, s.I}, {d.F, s.F}, {d.G, s.G}, {d.O, s.O}, {d.C, s.C}, {d.H, s.H}} {
			m[0].CopyColFrom(0, m[1], ep.col)
		}
		rec.logits[t].CopyColFrom(0, &src.logits[t], ep.col)
	}
	return &Episode{Actions: append([]int(nil), ep.Actions...), rec: rec}
}

// Update applies one optimizer step and clears the gradients.
func (c *Controller) Update(opt *nn.RMSProp) {
	opt.Step(c.params)
	for _, p := range c.params {
		p.ZeroGrad()
	}
	nn.CheckFinite(c.params)
}
