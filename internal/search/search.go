// Package search implements the comparison approaches of §V-C and Fig. 1:
//
//   - NASToASIC — successive optimization: mono-objective NAS first [1],
//     then brute-force hardware exploration for the fixed architectures.
//   - ASICToHWNAS — a 10,000-run Monte Carlo search for the ASIC design
//     closest to the design specs, then hardware-aware NAS [30] on that
//     fixed design.
//   - MonteCarlo — random co-sampling of (architectures, design) pairs,
//     which yields Fig. 1's optimal star and closest-to-spec heuristic
//     square.
//
// All approaches share NASAIC's evaluator so comparisons are apples-to-
// apples, and report their picks as *core.Solution, the type NASAIC's
// explorer reports. Each sample costs exactly one hardware evaluation; a
// pick is built from the metrics its sample already returned.
package search

import (
	"context"
	"math"

	"nasaic/internal/accel"
	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/predictor"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// solution builds the evaluated point of one sample from the metrics its
// hardware evaluation returned, training (memoized) its networks. Penalty
// and Reward come from the evaluator, as for the explorer's solutions.
func solution(e *core.Evaluator, choices [][]int, nets []*dnn.Network, d accel.Design, m core.HWMetrics) *core.Solution {
	accs := e.Accuracies(nets)
	weighted := e.W.Weighted(accs)
	pen := e.Penalty(m)
	return &core.Solution{
		ArchChoices: choices,
		Networks:    nets,
		Design:      d,
		Accuracies:  accs,
		Weighted:    weighted,
		Latency:     m.Latency,
		EnergyNJ:    m.EnergyNJ,
		AreaUM2:     m.AreaUM2,
		Penalty:     pen,
		Reward:      e.Reward(weighted, pen),
		Feasible:    m.Feasible,
	}
}

// NAS runs mono-objective NAS on one task: it samples the task's space and
// returns the highest-accuracy architecture found, starting from the
// largest one, with its accuracy (with the saturating accuracy model this
// converges to the capacity-maximal region, matching the paper's
// observation that spec-blind NAS picks networks too large for the
// hardware).
func NAS(t workload.TaskSpec, samples int, rng *stats.RNG) ([]int, *dnn.Network, float64) {
	best := t.Space.Largest()
	bestNet := t.Space.MustDecode(best)
	bestAcc := predictor.Accuracy(t.Dataset, bestNet)
	for s := 0; s < samples; s++ {
		c := t.Space.Random(rng)
		n := t.Space.MustDecode(c)
		if a := predictor.Accuracy(t.Dataset, n); a > bestAcc {
			best, bestNet, bestAcc = c, n, a
		}
	}
	return best, bestNet, bestAcc
}

// nasArchitectures runs NAS on every task of w in task order.
func nasArchitectures(w workload.Workload, samples int, rng *stats.RNG) ([][]int, []*dnn.Network) {
	choices := make([][]int, len(w.Tasks))
	nets := make([]*dnn.Network, len(w.Tasks))
	for ti, t := range w.Tasks {
		choices[ti], nets[ti], _ = NAS(t, samples, rng)
	}
	return choices, nets
}

// architectures picks one architecture per task of w with pick, in task
// order, and decodes it.
func architectures(w workload.Workload, pick func(*dnn.Space) []int) ([][]int, []*dnn.Network) {
	choices := make([][]int, len(w.Tasks))
	nets := make([]*dnn.Network, len(w.Tasks))
	for ti, t := range w.Tasks {
		choices[ti] = pick(t.Space)
		nets[ti] = t.Space.MustDecode(choices[ti])
	}
	return choices, nets
}

// NASToASIC runs the successive baseline: NAS ignores hardware, then
// hwSamples random hardware designs are brute-force evaluated for the fixed
// architectures; the design with the lowest penalty (closest to
// satisfiable) is returned. In the paper, no design satisfies the specs for
// the NAS-chosen networks (Table I, rows "NAS→ASIC"). The context is checked
// per sample; cancellation returns its error.
func NASToASIC(ctx context.Context, w workload.Workload, cfg core.Config, archSamples, hwSamples int) (*core.Solution, error) {
	e, err := core.NewEvaluator(w, cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x0a51c)
	choices, nets := nasArchitectures(w, archSamples, rng)

	var bestD accel.Design
	var bestM core.HWMetrics
	bestPen := math.Inf(1)
	for s := 0; s < hwSamples; s++ {
		d := cfg.HW.Random(rng)
		m, err := e.HWEvalCtx(ctx, nets, d)
		if err != nil {
			return nil, err
		}
		pen := e.Penalty(m)
		// Prefer lower penalty; among (near-)equals prefer lower latency so
		// the reported best-effort design is the performance frontier.
		if pen < bestPen-1e-9 || (pen < bestPen+1e-9 && m.Latency < bestM.Latency) {
			bestPen, bestD, bestM = pen, d, m
		}
	}
	return solution(e, choices, nets, bestD, bestM), nil
}

// ClosestToSpecDesign runs the Monte Carlo hardware search of the
// ASIC→HW-NAS baseline: mcRuns random designs are evaluated with the
// NAS-identified architectures and the design with the smallest normalized
// distance to the spec point ⟨LS, ES, AS⟩ is returned. The context is
// checked per sample; cancellation returns its error.
func ClosestToSpecDesign(ctx context.Context, w workload.Workload, e *core.Evaluator, cfg core.Config,
	nets []*dnn.Network, mcRuns int, rng *stats.RNG) (accel.Design, error) {
	sp := w.Specs
	best := cfg.HW.Random(rng)
	bestDist := math.Inf(1)
	bestWithinArea := false
	for s := 0; s < mcRuns; s++ {
		d := cfg.HW.Random(rng)
		m, err := e.HWEvalCtx(ctx, nets, d)
		if err != nil {
			return accel.Design{}, err
		}
		// Area is (nearly) architecture-independent, so a design whose area
		// already exceeds AS can never host a spec-satisfying architecture;
		// prefer designs inside the area budget.
		withinArea := m.AreaUM2 <= sp.AreaUM2
		if bestWithinArea && !withinArea {
			continue
		}
		dl := float64(m.Latency)/float64(sp.LatencyCycles) - 1
		de := m.EnergyNJ/sp.EnergyNJ - 1
		da := m.AreaUM2/sp.AreaUM2 - 1
		dist := dl*dl + de*de + da*da
		if dist < bestDist || (withinArea && !bestWithinArea) {
			bestDist, best, bestWithinArea = dist, d, withinArea
		}
	}
	return best, nil
}

// ASICToHWNAS runs the second baseline: fix the closest-to-spec design from
// mcRuns Monte Carlo hardware samples, then run hardware-aware NAS on that
// design — random architecture search keeping the best feasible weighted
// accuracy (an MnasNet-style single-design search [30]). When no sample is
// feasible it reports the smallest architectures on that design.
func ASICToHWNAS(ctx context.Context, w workload.Workload, cfg core.Config, mcRuns, nasSamples int) (*core.Solution, error) {
	e, err := core.NewEvaluator(w, cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x17a5)
	_, nasNets := nasArchitectures(w, 200, rng)
	design, err := ClosestToSpecDesign(ctx, w, e, cfg, nasNets, mcRuns, rng)
	if err != nil {
		return nil, err
	}

	var best *core.Solution
	for s := 0; s < nasSamples; s++ {
		choices, nets := architectures(w, func(sp *dnn.Space) []int { return sp.Random(rng) })
		m, err := e.HWEvalCtx(ctx, nets, design)
		if err != nil {
			return nil, err
		}
		if !m.Feasible {
			continue
		}
		if sol := solution(e, choices, nets, design, m); best == nil || sol.Weighted > best.Weighted {
			best = sol
		}
	}
	if best != nil {
		return best, nil
	}
	choices, nets := architectures(w, (*dnn.Space).Smallest)
	m, err := e.HWEvalCtx(ctx, nets, design)
	if err != nil {
		return nil, err
	}
	return solution(e, choices, nets, design, m), nil
}

// MonteCarloResult holds the products of the random co-search. Either
// point is nil when no sample met the specs.
type MonteCarloResult struct {
	// BestFeasible maximizes weighted accuracy subject to the specs
	// (Fig. 1's star).
	BestFeasible *core.Solution
	// ClosestToSpec is the feasible point minimizing the normalized
	// distance to the spec corner (Fig. 1's heuristic square).
	ClosestToSpec *core.Solution
}

// MonteCarlo co-samples runs random (architectures, design) pairs. Only
// feasible samples, the only ones that can become the star or the square,
// are trained. The context is checked per sample; cancellation returns its
// error.
func MonteCarlo(ctx context.Context, w workload.Workload, cfg core.Config, runs int) (*MonteCarloResult, error) {
	e, err := core.NewEvaluator(w, cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x3ca7e)
	res := &MonteCarloResult{}
	sp := w.Specs
	bestDist := math.Inf(1)
	for s := 0; s < runs; s++ {
		choices, nets := architectures(w, func(sp *dnn.Space) []int { return sp.Random(rng) })
		d := cfg.HW.Random(rng)
		m, err := e.HWEvalCtx(ctx, nets, d)
		if err != nil {
			return nil, err
		}
		if !m.Feasible {
			continue
		}
		sol := solution(e, choices, nets, d, m)
		if res.BestFeasible == nil || sol.Weighted > res.BestFeasible.Weighted {
			res.BestFeasible = sol
		}
		dl := 1 - float64(sol.Latency)/float64(sp.LatencyCycles)
		de := 1 - sol.EnergyNJ/sp.EnergyNJ
		da := 1 - sol.AreaUM2/sp.AreaUM2
		if dist := dl*dl + de*de + da*da; dist < bestDist {
			bestDist = dist
			res.ClosestToSpec = sol
		}
	}
	return res, nil
}
