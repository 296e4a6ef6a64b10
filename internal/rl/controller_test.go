package rl

import (
	"math"
	"testing"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

func testSpecs() []DecisionSpec {
	return []DecisionSpec{
		{Name: "FN0", NumOptions: 4},
		{Name: "SK0", NumOptions: 3},
		{Name: "df", NumOptions: 3},
		{Name: "pe", NumOptions: 5},
	}
}

func TestControllerSampleShape(t *testing.T) {
	c := NewController(testSpecs(), 16, stats.NewRNG(1))
	ep := c.Sample()
	if len(ep.Actions) != 4 || len(ep.rec.logits) != 4 {
		t.Fatalf("episode shape wrong: %d actions", len(ep.Actions))
	}
	for tIdx, s := range testSpecs() {
		if a := ep.Actions[tIdx]; a < 0 || a >= s.NumOptions {
			t.Errorf("step %d: action %d out of range [0,%d)", tIdx, a, s.NumOptions)
		}
		if n := len(ep.logits(tIdx)); n != s.NumOptions {
			t.Errorf("step %d: %d logits, want %d", tIdx, n, s.NumOptions)
		}
	}
	var lp float64
	for tIdx := range ep.Actions {
		lp += math.Log(nn.Softmax(ep.logits(tIdx))[ep.Actions[tIdx]])
	}
	if lp >= 0 || math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Errorf("log prob %f should be negative and finite", lp)
	}
}

func TestControllerDeterministicGivenSeed(t *testing.T) {
	a := NewController(testSpecs(), 16, stats.NewRNG(42)).Sample()
	b := NewController(testSpecs(), 16, stats.NewRNG(42)).Sample()
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatal("same seed must reproduce the same rollout")
		}
	}
}

// The core learning test: with a reward that prefers one specific action
// tuple, REINFORCE must concentrate probability mass on it.
func TestControllerLearnsTargetTuple(t *testing.T) {
	rng := stats.NewRNG(7)
	c := NewController(testSpecs(), 24, rng)
	opt := nn.NewRMSProp()
	opt.LR = 0.02
	opt.LRDecaySteps = 0
	tr := NewTrainer()
	target := []int{2, 1, 0, 3}

	reward := func(actions []int) float64 {
		r := 0.0
		for i, a := range actions {
			if a == target[i] {
				r += 0.25
			}
		}
		return r
	}

	for ep := 0; ep < 600; ep++ {
		e := c.Sample()
		adv := tr.Advantage(reward(e.Actions))
		c.Accumulate(e, adv, 1.0, 1.0)
		c.Update(opt)
	}
	g := c.greedy().Actions
	match := 0
	for i := range g {
		if g[i] == target[i] {
			match++
		}
	}
	if match < 3 {
		t.Errorf("greedy rollout %v matches target %v on only %d/4 decisions", g, target, match)
	}
}

// Training must raise the expected reward over time (weaker, faster check).
func TestTrainingImprovesReward(t *testing.T) {
	rng := stats.NewRNG(9)
	c := NewController(testSpecs(), 16, rng)
	opt := nn.NewRMSProp()
	opt.LR = 0.02
	opt.LRDecaySteps = 0
	tr := NewTrainer()
	reward := func(a []int) float64 {
		if a[0] == 1 {
			return 1
		}
		return 0
	}
	early, late := 0.0, 0.0
	const n = 300
	for ep := 0; ep < n; ep++ {
		e := c.Sample()
		r := reward(e.Actions)
		if ep < 50 {
			early += r
		}
		if ep >= n-50 {
			late += r
		}
		adv := tr.Advantage(r)
		c.Accumulate(e, adv, 1.0, 1.0)
		c.Update(opt)
	}
	if late <= early {
		t.Errorf("reward did not improve: early %f late %f", early, late)
	}
}

func TestTrainerBaseline(t *testing.T) {
	tr := NewTrainer()
	if adv := tr.Advantage(1.0); adv != 0 {
		t.Errorf("first advantage should be 0 (baseline bootstrap), got %f", adv)
	}
	adv := tr.Advantage(2.0)
	if adv <= 0 {
		t.Errorf("reward above baseline must yield positive advantage, got %f", adv)
	}
	if tr.Baseline() <= 1.0 || tr.Baseline() >= 2.0 {
		t.Errorf("baseline %f should move toward the new reward", tr.Baseline())
	}
}

func TestBatchAccumulation(t *testing.T) {
	rng := stats.NewRNG(11)
	c := NewController(testSpecs(), 16, rng)
	// Accumulating two episodes with batchScale 0.5 must not panic and must
	// leave finite gradients.
	e1 := c.Sample()
	e2 := c.Sample()
	c.Accumulate(e1, 0.7, 1.0, 0.5)
	c.Accumulate(e2, -0.3, 1.0, 0.5)
	for _, p := range c.Params() {
		for _, g := range p.Grad.W {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("non-finite gradient in %s", p.Name)
			}
		}
	}
	c.Update(nn.NewRMSProp())
}

func TestControllerPanicsOnBadConstruction(t *testing.T) {
	for name, f := range map[string]func(){
		"no specs":    func() { NewController(nil, 8, stats.NewRNG(1)) },
		"zero hidden": func() { NewController(testSpecs(), 0, stats.NewRNG(1)) },
		"zero options": func() {
			NewController([]DecisionSpec{{Name: "x", NumOptions: 0}}, 8, stats.NewRNG(1))
		},
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Discounting: with gamma < 1 earlier steps receive larger discount factors
// (gamma^(T-t) with T-t larger), mirroring Eq. (1). Verify indirectly: the
// gradient magnitude of the first head is smaller with gamma < 1 than with
// gamma = 1 for the same episode and advantage.
func TestDiscountingScalesEarlySteps(t *testing.T) {
	rng := stats.NewRNG(13)
	c := NewController(testSpecs(), 16, rng)
	ep := c.Sample()

	gradNormOfFirstHead := func(gamma float64) float64 {
		c.Accumulate(ep, 1.0, gamma, 1.0)
		n := c.heads[0].W.GradNorm()
		for _, p := range c.Params() {
			p.ZeroGrad()
		}
		return n
	}
	full := gradNormOfFirstHead(1.0)
	discounted := gradNormOfFirstHead(0.5)
	if discounted >= full {
		t.Errorf("gamma=0.5 first-step grad %f should be below gamma=1 grad %f", discounted, full)
	}
}

func TestSampleForcedPinsPrefix(t *testing.T) {
	c := NewController(testSpecs(), 16, stats.NewRNG(21))
	prefix := []int{3, 2}
	for _, ep := range c.SampleForcedBatch(prefix, 20) {
		if ep.Actions[0] != 3 || ep.Actions[1] != 2 {
			t.Fatalf("forced prefix not respected: %v", ep.Actions)
		}
		for tIdx := 2; tIdx < len(ep.Actions); tIdx++ {
			if a := ep.Actions[tIdx]; a < 0 || a >= testSpecs()[tIdx].NumOptions {
				t.Fatalf("sampled action out of range at step %d: %d", tIdx, a)
			}
		}
	}
}

func TestSampleForcedPanics(t *testing.T) {
	c := NewController(testSpecs(), 16, stats.NewRNG(22))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for over-long prefix")
			}
		}()
		c.SampleForcedBatch([]int{0, 0, 0, 0, 0}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range forced action")
			}
		}()
		c.SampleForcedBatch([]int{99}, 1)
	}()
}

// Masked accumulation must leave the masked steps' heads untouched.
func TestAccumulateMaskedZerosInactiveSteps(t *testing.T) {
	c := NewController(testSpecs(), 16, stats.NewRNG(23))
	ep := c.Sample()
	mask := []bool{false, false, true, true}
	c.AccumulateMaskedBatch([]*Episode{ep}, []float64{1.0}, 1.0, 1.0, mask)
	if n := c.heads[0].W.GradNorm(); n != 0 {
		t.Errorf("masked step 0 head received gradient %f", n)
	}
	if n := c.heads[1].W.GradNorm(); n != 0 {
		t.Errorf("masked step 1 head received gradient %f", n)
	}
	if n := c.heads[2].W.GradNorm(); n == 0 {
		t.Error("active step 2 head received no gradient")
	}
	if n := c.heads[3].W.GradNorm(); n == 0 {
		t.Error("active step 3 head received no gradient")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong mask length")
			}
		}()
		c.AccumulateMaskedBatch([]*Episode{ep}, []float64{1.0}, 1.0, 1.0, []bool{true})
	}()
}

// Entropy regularization must flatten the policy relative to an identical
// unregularized training run on a deterministic reward.
func TestEntropyRegularizationKeepsExploring(t *testing.T) {
	train := func(coef float64) float64 {
		rng := stats.NewRNG(31)
		c := NewController(testSpecs()[:1], 16, rng)
		c.EntropyCoef = coef
		opt := nn.NewRMSProp()
		opt.LR = 0.05
		opt.LRDecaySteps = 0
		tr := NewTrainer()
		for ep := 0; ep < 250; ep++ {
			e := c.Sample()
			r := 0.0
			if e.Actions[0] == 1 {
				r = 1
			}
			adv := tr.Advantage(r)
			c.Accumulate(e, adv, 1.0, 1.0)
			c.Update(opt)
		}
		// Step 0's distribution does not depend on any earlier action.
		return nn.Entropy(nn.Softmax(c.greedy().logits(0)))
	}
	plain := train(0)
	regularized := train(0.1)
	if regularized <= plain {
		t.Errorf("entropy bonus should keep the policy flatter: H=%f vs plain %f", regularized, plain)
	}
}
