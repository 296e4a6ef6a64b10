package rl

import (
	"fmt"

	"nasaic/internal/nn"
)

// sampleForced is the sequential reference for SampleForcedBatch: one
// rollout whose first len(prefix) actions are forced to the given values
// while the remaining steps are sampled from the policy, through the
// matrix-vector LSTM path Sample uses. The differential tests require b
// sampleForced calls and one SampleForcedBatch(prefix, b) to agree bit for
// bit, RNG stream included.
func (c *Controller) sampleForced(prefix []int) *Episode {
	if len(prefix) > len(c.specs) {
		panic("rl: forced prefix longer than rollout")
	}
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
		var a int
		if t < len(prefix) {
			a = prefix[t]
			if a < 0 || a >= c.specs[t].NumOptions {
				panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
			}
		} else {
			a = c.rng.Categorical(nn.Softmax(logits))
		}
		ep.Actions[t] = a
		ep.Logits[t] = logits
		ep.caches[t] = cache
		ep.hs[t] = state.H
		x = c.embeds[t].Val.Col(a)
	}
	return ep
}
