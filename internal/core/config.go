// Package core is NASAIC itself (§IV): the co-exploration framework that
// couples the multi-task RNN controller (①), the optimizer selector with its
// SA/SH switches and early pruning (②), and the evaluator (③) that turns a
// sampled (architectures, accelerator) pair into the reward of Eq. (4).
package core

import (
	"fmt"
	"runtime"

	"nasaic/internal/accel"
	"nasaic/internal/evalcache"
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
	// Workers bounds the goroutines used for parallel hardware evaluation
	// (the paper's non-blocking scheme, §IV-②). <=0 selects NumCPU.
	Workers int
	// TrainEpochs is the simulated training length used when reporting
	// learning curves; the reward uses the converged accuracy either way.
	TrainEpochs int
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
	// HWCache routes hardware evaluations (cost model + HAP scheduling)
	// through the sharded internal/evalcache LRU, extending the paper's
	// "never re-evaluate what you already know" insight from the accuracy
	// path to the much hotter mapping-and-scheduling path. Results are
	// bit-identical with the cache on or off (the evaluation is a pure
	// function of its inputs); only wall clock and evaluation counts change.
	HWCache bool
	// ShareLayerMemo promotes the evaluator's layer-cost memo (see
	// Evaluator) from per-evaluator to the process-wide memo of
	// maestro.SharedCostMemo (keyed by the full cost-model configuration),
	// so fresh evaluators — the Table I/II baselines build one per approach
	// — start warm. Results are bit-identical either way; only the
	// per-evaluator hit counters and wall clock change.
	ShareLayerMemo bool
	// AccMemo, when non-nil, is a shared accuracy-predictor memo: every
	// evaluator handed the same memo reuses each other's
	// training-and-validating results (the predictor is a pure function of
	// ⟨dataset, architecture⟩, so sharing is bit-identical). Experiments
	// use one memo across the runs of one table so later searches start
	// warm; nil keeps the seed behavior of one private memo per evaluator.
	AccMemo *AccuracyMemo
	// SharedHWCache, when non-nil, replaces the evaluator's private
	// hardware-evaluation cache with a caller-owned one, so several
	// explorers (e.g. the concurrent jobs of one nasaicd process) reuse each
	// other's mapping-and-scheduling results. The cached evaluation is a
	// pure function of its inputs, so sharing is bit-identical; it overrides
	// HWCache.
	SharedHWCache *evalcache.Cache[HWMetrics]
	// CacheDir, when non-empty, backs the layer-cost memo and the (private)
	// hardware-evaluation cache with a persistent on-disk warm tier: the
	// evaluator loads matching snapshots from this directory at construction
	// and Evaluator.SaveCaches writes them back, so a fresh process starts
	// with ~100% memo hit rates from the first episode. The files are
	// versioned and checksummed, keyed by the cost-model calibration (and,
	// for the hardware cache, the workload and hardware space), and every
	// load failure — missing, torn, corrupt, stale version, different
	// calibration — silently degrades to a cold start. Both tiers memoize
	// pure functions and gob round-trips float64s bit-exactly, so a warm
	// start changes work counters, never results. A SharedHWCache is not
	// loaded or saved here; its owner persists the bundle (see
	// pkg/nasaic.SharedMemos).
	CacheDir string

	Cost maestro.Config
	HW   accel.Space
}

// maxHWSteps caps φ. Every episode allocates and evaluates 1+φ hardware
// rollouts up front, so an unbounded φ from a job spec or flag would exhaust
// memory before the first episode ends; the paper uses 10.
const maxHWSteps = 1024

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
		TrainEpochs:  30,
		LR:           0.03,
		LRDecay:      0.5,
		LRDecaySteps: 40,
		Batch:        5,
		EntropyCoef:  0.015,
		ReplayCoef:   0.3,
		Refine:       true,
		HWCache:      true,
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

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.NumCPU()
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}
