package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// BranchAndBound solves the HAP instance exactly for instances beyond
// Exhaustive's reach: depth-first search over layer assignments, branched in
// decreasing energy-spread order (which tightens the bounds early), pruned
// with the same admissible suffix bounds as Exhaustive —
//
//   - energy: assigned energy + Σ per-layer minimum energies of the rest,
//     cut against the best feasible energy published so far (with the
//     energySlack float margin, so a true winner is never pruned);
//   - makespan: the larger of (a) any chain's assigned cycles plus its
//     remaining per-layer minimum cycles and (b) any sub-accelerator's
//     already-assigned load — both integer-exact lower bounds on the
//     list-scheduled makespan;
//   - before any feasible leaf exists, subtrees that are provably infeasible
//     and cannot improve the running minimum-makespan fallback.
//
// The search reuses the exhaustPre/exhaustState machinery (suffix-bound
// precompute, bounded leaf simulation, shared best-energy bound) over the
// spread-sorted branch order, and — like Exhaustive — fans out across a
// worker pool on large instances, with the per-prefix results folded in
// enumeration order so a completed search is deterministic for any worker
// count.
//
// nodeBudget bounds the explored search-tree nodes (shared across workers);
// the second return value reports whether the search completed within it
// (true ⇒ the result is optimal in the same sense as Exhaustive). A
// budget-truncated parallel search still returns the best leaf found, but
// which leaves were explored then depends on worker scheduling.
func BranchAndBound(p Problem, nodeBudget int) (Result, bool, error) {
	return BranchAndBoundCtx(context.Background(), p, nodeBudget) //lint:allow ctxplumb compat shim: non-ctx public API delegates to the ctx variant
}

// BranchAndBoundCtx is BranchAndBound with cooperative cancellation: workers
// poll ctx every ctxCheckNodes dfs entries (and before claiming each
// enumeration prefix) and the call returns ctx's error once it is done.
// Uncancelled solves are bit-identical to BranchAndBound.
func BranchAndBoundCtx(ctx context.Context, p Problem, nodeBudget int) (Result, bool, error) {
	if err := p.Validate(); err != nil {
		return Result{}, false, err
	}
	if nodeBudget <= 0 {
		return Result{}, false, fmt.Errorf("sched: node budget must be positive")
	}
	if err := ctx.Err(); err != nil {
		return Result{}, false, err
	}

	// Branch order: decreasing energy spread. Site construction order and
	// sort are kept identical to the pre-unification solver, so the
	// enumeration order — and with it the first-enumerated tie-breaks — are
	// unchanged (pinned by the differential tests).
	type bsite struct {
		chain, layer int
		spread       float64
	}
	var sites []bsite
	for ci, c := range p.Chains {
		for li, l := range c.Layers {
			minE, maxE := l.Options[0].EnergyNJ, l.Options[0].EnergyNJ
			for _, o := range l.Options[1:] {
				if o.EnergyNJ < minE {
					minE = o.EnergyNJ
				}
				if o.EnergyNJ > maxE {
					maxE = o.EnergyNJ
				}
			}
			sites = append(sites, bsite{chain: ci, layer: li, spread: maxE - minE})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].spread > sites[j].spread })

	// dfs branches position n-1 first; depth d of the sorted order maps to
	// position n-1-d, so leaves appear in exactly the old branch order.
	n := len(sites)
	chainOf := make([]int, n)
	layerOf := make([]int, n)
	for k := 0; k < n; k++ {
		chainOf[k] = sites[n-1-k].chain
		layerOf[k] = sites[n-1-k].layer
	}
	pre := newExhaustPreFrom(&p, chainOf, layerOf)
	budget := newNodeBudget(int64(nodeBudget))

	// Parallel split: worth it only when both the enumeration space and the
	// node budget are large enough to amortize the worker pool.
	capped := 1
	for i := 0; i < n && capped < math.MaxInt/p.NumAccels; i++ {
		capped *= p.NumAccels
	}
	eff := capped
	if nodeBudget < eff {
		eff = nodeBudget
	}
	if nw := solverWorkers(eff, p.tuning.workers()); eff >= p.tuning.exhaustMin() && nw >= 2 {
		best, have, err := exhaustParallel(ctx, &p, pre, nw, budget)
		if err != nil {
			return Result{}, false, err
		}
		complete := !budget.hit.Load()
		if !have {
			return Result{}, complete, fmt.Errorf("sched: branch and bound explored no leaf within budget %d", nodeBudget)
		}
		return best, complete, nil
	}

	st := newExhaustState(ctx, &p, pre, newExhaustShared())
	st.budget = budget
	st.claimChunk = int64(nodeBudget) // sequential: one exact claim
	st.dfs(n-1, 0)
	if st.aborted {
		return Result{}, false, ctx.Err()
	}
	complete := !budget.hit.Load()
	if !st.have {
		return Result{}, complete, fmt.Errorf("sched: branch and bound explored no leaf within budget %d", nodeBudget)
	}
	return st.best, complete, nil
}
