// Package core is NASAIC itself (§IV): the co-exploration framework that
// couples the multi-task RNN controller (①), the optimizer selector with its
// SA/SH switches and early pruning (②), and the evaluator (③) that turns a
// sampled (architectures, accelerator) pair into the reward of Eq. (4).
package core

import (
	"fmt"
	"runtime"

	"nasaic/internal/accel"
	"nasaic/internal/maestro"
)

// Config holds the exploration hyperparameters. Field names follow the
// paper's symbols where they exist.
type Config struct {
	// Episodes is β: the number of exploration episodes (paper: 500).
	Episodes int
	// HWSteps is φ: hardware-only exploration steps per episode (paper: 10).
	HWSteps int
	// Rho is the penalty scaling ρ in Eq. (4) (paper: 10).
	Rho float64
	// Gamma is the per-step reward discount of Eq. (1).
	Gamma float64
	// Hidden is the controller LSTM width.
	Hidden int
	// Seed makes the whole exploration deterministic.
	Seed int64
	// Workers bounds the goroutines that evaluate one batch of hardware
	// candidates in parallel — an RL round's 1+φ designs, an EA generation,
	// a refine sweep (the paper's non-blocking scheme, §IV-②). <=0 selects
	// GOMAXPROCS, capped at 16; at most 64. Results and work counters are
	// the same at every value.
	Workers int
	// LR is the controller learning rate. The paper quotes RMSProp with an
	// initial rate of 0.99 decayed 0.5× every 50 steps; with a normalized-
	// gradient optimizer that magnitude is unstable, so the framework
	// defaults to a proportionally scaled schedule that converges within
	// the same β=500 episode budget.
	LR float64
	// LRDecay and LRDecaySteps implement the exponential decay schedule.
	LRDecay      float64
	LRDecaySteps int
	// Batch is the number of combined episodes accumulated per controller
	// update (m in Eq. 1).
	Batch int
	// EntropyCoef regularizes the controller against premature collapse.
	EntropyCoef float64
	// ReplayCoef adds a self-imitation term: every update also reinforces
	// the best episode found so far, scaled by this coefficient. This is an
	// extension over the paper's plain REINFORCE that substantially reduces
	// seed variance (ablated in bench_test.go); 0 disables it.
	ReplayCoef float64
	// Refine enables the feasibility-preserving coordinate-descent exploit
	// phase after the RL loop (see refine.go); ablated in bench_test.go.
	Refine bool
	// Memos is the memo bundle the evaluator reads and fills: the accuracy
	// memo, the layer-cost memo and the hardware-evaluation cache. Evaluators
	// handed one bundle reuse each other's work; every tier memoizes a pure
	// function, so sharing changes work counters and wall clock, never a
	// result. Nil gives the evaluator a private bundle. A shared bundle must
	// be bound to Cost (see NewMemos). The bundle's owner loads and saves its
	// persistent warm tier (Memos.LoadDir/SaveDir); the evaluator does no
	// file IO.
	Memos *Memos

	Cost maestro.Config
	HW   accel.Space
}

// maxHWSteps caps φ. Every episode allocates and evaluates 1+φ hardware
// rollouts up front, so an unbounded φ from a job spec or flag would exhaust
// memory before the first episode ends; the paper uses 10.
const maxHWSteps = 1024

// maxWorkers caps Workers. Each batch starts up to Workers goroutines, so an
// unbounded value from a job spec would get around a tenant's concurrency
// quota; past the host's cores more workers only add scheduling.
const maxWorkers = 64

// DefaultConfig returns the paper's settings (§V-A).
func DefaultConfig() Config {
	return Config{
		Episodes:     500,
		HWSteps:      10,
		Rho:          10,
		Gamma:        1.0,
		Hidden:       48,
		Seed:         1,
		Workers:      0,
		LR:           0.03,
		LRDecay:      0.5,
		LRDecaySteps: 40,
		Batch:        5,
		EntropyCoef:  0.015,
		ReplayCoef:   0.3,
		Refine:       true,
		Cost:         maestro.DefaultConfig(),
		HW:           accel.DefaultSpace(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Episodes <= 0 {
		return fmt.Errorf("core: Episodes must be positive")
	}
	if c.HWSteps < 0 || c.HWSteps > maxHWSteps {
		return fmt.Errorf("core: HWSteps must be in [0,%d]", maxHWSteps)
	}
	if c.Workers > maxWorkers {
		return fmt.Errorf("core: Workers must be at most %d", maxWorkers)
	}
	if c.Rho <= 0 {
		return fmt.Errorf("core: Rho must be positive")
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		return fmt.Errorf("core: Gamma must be in (0,1]")
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("core: Hidden must be positive")
	}
	if c.HW.NumSubs <= 0 || len(c.HW.Styles) == 0 || len(c.HW.PEOptions) == 0 || len(c.HW.BWOptions) == 0 {
		return fmt.Errorf("core: hardware space is empty")
	}
	if c.LR <= 0 {
		return fmt.Errorf("core: LR must be positive")
	}
	if c.Batch <= 0 {
		return fmt.Errorf("core: Batch must be positive")
	}
	if c.EntropyCoef < 0 {
		return fmt.Errorf("core: EntropyCoef must be non-negative")
	}
	return c.Cost.Validate()
}

// workers resolves Workers: the configured count, or GOMAXPROCS capped at
// 16 when it is <=0.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return min(runtime.GOMAXPROCS(0), 16)
}
