package rl

import "math"

func mathLog(x float64) float64 { return math.Log(x) }

func pow(base, exp float64) float64 {
	if base == 1 {
		return 1
	}
	return math.Pow(base, exp)
}

// Trainer holds the REINFORCE reward baseline b of Eq. (1), an exponential
// moving average of the rewards. The discount γ and the update batch are
// the caller's (core.Config.Gamma and core.Config.Batch).
type Trainer struct {
	baselineAlpha float64
	baseline      float64
	baselineInit  bool
}

// NewTrainer returns a trainer whose baseline is an exponential moving
// average with α=0.05 ("the average exponential moving of rewards", Eq. 1).
// The trainer only scores rewards: internal/core accumulates Config.Batch
// (default 5) combined episodes per controller update.
func NewTrainer() *Trainer {
	return &Trainer{baselineAlpha: 0.05}
}

// Baseline returns the current reward baseline b.
func (t *Trainer) Baseline() float64 { return t.baseline }

// Advantage folds reward into the baseline and returns (R − b) computed
// against the pre-update baseline.
func (t *Trainer) Advantage(reward float64) float64 {
	if !t.baselineInit {
		t.baseline = reward
		t.baselineInit = true
		return 0
	}
	adv := reward - t.baseline
	t.baseline = t.baselineAlpha*reward + (1-t.baselineAlpha)*t.baseline
	return adv
}
