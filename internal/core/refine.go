package core

import (
	"context"

	"nasaic/internal/rl"
	"nasaic/internal/stats"
)

// Exploit-phase tuning knobs.
const (
	refinePasses = 3  // coordinate-descent passes per descent
	refineWindow = 10 // option window for very wide decisions (PE counts)
	wideLimit    = 24 // option count beyond which the window applies
	hopRounds    = 12 // basin-hopping perturbation rounds
)

// refineFrom polishes one incumbent with feasibility-preserving coordinate
// descent over the full decision vector (architecture hyperparameters and
// hardware allocations together), followed by basin hopping: random 2–3
// decision perturbations with re-descent, which enables the paired moves —
// shrink one task's network while growing another's — that single-coordinate
// descent cannot discover.
//
// The exploit phase is an extension over the paper's plain REINFORCE search:
// it converts the controller's good co-design region into that region's
// local optimum, which the successive baselines cannot reach because they
// freeze one side of the space. Its contribution is measured by the
// refinement ablation benchmark. A done context abandons the descent and
// returns ctx's error.
func (x *Explorer) refineFrom(ctx context.Context, sol *Solution, specs []rl.DecisionSpec, rng *stats.RNG) (*Solution, error) {
	best, err := x.descend(ctx, sol, specs, refinePasses)
	if err != nil {
		return nil, err
	}
	for r := 0; r < hopRounds; r++ {
		a := append([]int(nil), best.actions...)
		k := 2 + rng.Intn(2)
		for i := 0; i < k; i++ {
			t := rng.Intn(len(specs))
			a[t] = rng.Intn(specs[t].NumOptions)
		}
		cand, err := x.evalActions(ctx, a, best.Episode)
		if err != nil {
			return nil, err
		}
		if cand == nil {
			continue
		}
		if cand, err = x.descend(ctx, cand, specs, 2); err != nil {
			return nil, err
		}
		if cand.Weighted > best.Weighted+1e-9 {
			best = cand
		}
	}
	return best, nil
}

// descend runs coordinate descent from sol, sweeping each decision over its
// options (windowed to ±refineWindow around the current index for very wide
// option lists) and keeping the feasible change that most improves weighted
// accuracy. Each sweep is one evaluation batch, folded in option order, so
// the first option to reach the sweep's best weighted accuracy wins exactly
// as in a one-option-at-a-time sweep.
func (x *Explorer) descend(ctx context.Context, sol *Solution, specs []rl.DecisionSpec, maxPasses int) (*Solution, error) {
	best := sol
	cur := append([]int(nil), sol.actions...)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for t := range specs {
			orig := cur[t]
			bestOpt := orig
			lo, hi := 0, specs[t].NumOptions
			if specs[t].NumOptions > wideLimit {
				lo, hi = max(orig-refineWindow, 0), min(orig+refineWindow+1, specs[t].NumOptions)
			}
			cands := x.batch(hi - lo - 1)
			for i := range cands {
				c := &cands[i]
				copy(c.actions, cur)
				if c.actions[t] = lo + i; c.actions[t] >= orig {
					c.actions[t]++ // skip the incumbent's option
				}
				x.decode(c)
			}
			if err := x.evalBatch(ctx, cands); err != nil {
				return nil, err
			}
			for i := range cands {
				c := &cands[i]
				if c.skip || !c.m.Feasible {
					continue
				}
				if x.train(c) > best.Weighted+1e-9 {
					best = x.solutionOf(sol.Episode, c)
					bestOpt = c.actions[t]
				}
			}
			cur[t] = bestOpt
			if bestOpt != orig {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// evalActions evaluates a full action vector as a one-candidate batch,
// returning nil when the decoded pair is infeasible and ctx's error once ctx
// is done.
func (x *Explorer) evalActions(ctx context.Context, a []int, episode int) (*Solution, error) {
	cands := x.batch(1)
	c := &cands[0]
	copy(c.actions, a)
	x.decode(c)
	if err := x.evalBatch(ctx, cands); err != nil || c.skip || !c.m.Feasible {
		return nil, err
	}
	x.train(c)
	return x.solutionOf(episode, c), nil
}
