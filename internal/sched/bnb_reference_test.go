package sched

// This file holds the exact oracle for HAP instances beyond ExhaustiveCtx's
// size guard: a depth-first branch and bound over layer assignments, branched
// in decreasing energy-spread order and pruned with admissible energy and
// makespan bounds, running a full simulation per leaf. nodeBudget bounds the
// explored nodes; the second return reports whether the search completed
// within it (true ⇒ the result is optimal). bnb_test.go checks it against
// ExhaustiveCtx on small instances and uses it to bound the heuristic on a
// medium one.

import (
	"fmt"
	"math"
	"sort"
)

func referenceBranchAndBound(p Problem, nodeBudget int) (Result, bool, error) {
	if err := p.Validate(); err != nil {
		return Result{}, false, err
	}
	if nodeBudget <= 0 {
		return Result{}, false, fmt.Errorf("sched: node budget must be positive")
	}

	type site struct {
		chain, layer int
		minCycles    int64
		minEnergy    float64
		spread       float64
	}
	var sites []site
	for ci, c := range p.Chains {
		for li, l := range c.Layers {
			s := site{chain: ci, layer: li,
				minCycles: l.Options[0].Cycles, minEnergy: l.Options[0].EnergyNJ}
			maxE := l.Options[0].EnergyNJ
			for _, o := range l.Options[1:] {
				if o.Cycles < s.minCycles {
					s.minCycles = o.Cycles
				}
				if o.EnergyNJ < s.minEnergy {
					s.minEnergy = o.EnergyNJ
				}
				if o.EnergyNJ > maxE {
					maxE = o.EnergyNJ
				}
			}
			s.spread = maxE - s.minEnergy
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].spread > sites[j].spread })

	// Suffix sums of the optimistic remainders, in branch order.
	n := len(sites)
	sufEnergy := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufEnergy[i] = sufEnergy[i+1] + sites[i].minEnergy
	}
	sufChainCycles := make([]map[int]int64, n+1)
	sufChainCycles[n] = map[int]int64{}
	for i := n - 1; i >= 0; i-- {
		m := make(map[int]int64, len(p.Chains))
		for k, v := range sufChainCycles[i+1] {
			m[k] = v
		}
		m[sites[i].chain] += sites[i].minCycles
		sufChainCycles[i] = m
	}

	a := make(Assignment, len(p.Chains))
	for ci, c := range p.Chains {
		a[ci] = make([]int, len(c.Layers))
	}

	var (
		best        Result
		haveBest    bool
		bestAnyMk   int64 = math.MaxInt64
		bestAny     Result
		haveAny     bool
		nodes       int
		complete    = true
		chainLoad   = make([]int64, len(p.Chains))
		accelLoad   = make([]int64, p.NumAccels)
		energySoFar float64
		ev          = newEvaluator(&p) // validated once above; leaves run unchecked
	)

	var dfs func(depth int)
	dfs = func(depth int) {
		if nodes >= nodeBudget {
			complete = false
			return
		}
		nodes++
		if depth == n {
			ev.run(a, nil)
			mk, en := ev.makespan, ev.energy
			if mk <= p.Deadline && (!haveBest || en < best.EnergyNJ) {
				best = ev.result(a)
				haveBest = true
			}
			if mk < bestAnyMk {
				bestAnyMk = mk
				bestAny = ev.result(a)
				haveAny = true
			}
			return
		}
		s := sites[depth]
		opts := p.Chains[s.chain].Layers[s.layer].Options
		for j := range opts {
			// Energy bound.
			e := energySoFar + opts[j].EnergyNJ + sufEnergy[depth+1]
			if haveBest && e >= best.EnergyNJ {
				continue
			}
			// Makespan bounds (sound for the list scheduler).
			cl := chainLoad[s.chain] + opts[j].Cycles + sufChainCycles[depth+1][s.chain]
			al := accelLoad[j] + opts[j].Cycles
			if haveBest && (cl > p.Deadline || al > p.Deadline) {
				continue
			}

			a[s.chain][s.layer] = j
			energySoFar += opts[j].EnergyNJ
			chainLoad[s.chain] += opts[j].Cycles
			accelLoad[j] += opts[j].Cycles
			dfs(depth + 1)
			accelLoad[j] -= opts[j].Cycles
			chainLoad[s.chain] -= opts[j].Cycles
			energySoFar -= opts[j].EnergyNJ
		}
	}
	dfs(0)

	if haveBest {
		return best, complete, nil
	}
	if haveAny {
		return bestAny, complete, nil
	}
	return Result{}, complete, fmt.Errorf("sched: branch and bound explored no leaf within budget %d", nodeBudget)
}
