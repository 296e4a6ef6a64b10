package core

import (
	"context"
	"fmt"
	"sort"

	"nasaic/internal/stats"
)

// EvolutionConfig parameterizes the evolutionary co-search. The paper notes
// (§IV) that "based on the formulated reward function, other optimization
// approaches, such as evolution algorithms, can also be applied"; this is
// that alternative optimizer, sharing the controller's decision encoding,
// the evaluator, and the Eq. (4) reward, so the two search strategies are
// directly comparable (see the RL-vs-EA ablation benchmark).
type EvolutionConfig struct {
	// Population is the number of individuals per generation.
	Population int
	// Generations bounds the evolutionary loop; total evaluations are
	// roughly Population × Generations, comparable to β×(1+φ) in RL mode.
	Generations int
	// Elite individuals survive unchanged into the next generation.
	Elite int
	// TournamentK is the tournament-selection size.
	TournamentK int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// CrossoverRate is the probability a child is produced by uniform
	// crossover (otherwise it is a mutated copy of one parent).
	CrossoverRate float64
}

// DefaultEvolutionConfig mirrors the RL mode's evaluation budget at the
// paper's settings.
func DefaultEvolutionConfig() EvolutionConfig {
	return EvolutionConfig{
		Population:    50,
		Generations:   40,
		Elite:         4,
		TournamentK:   3,
		MutationRate:  0.08,
		CrossoverRate: 0.8,
	}
}

// Validate checks the configuration.
func (ec EvolutionConfig) Validate() error {
	if ec.Population < 2 {
		return fmt.Errorf("core: evolution population must be at least 2")
	}
	if ec.Generations <= 0 {
		return fmt.Errorf("core: evolution generations must be positive")
	}
	if ec.Elite < 0 || ec.Elite >= ec.Population {
		return fmt.Errorf("core: elite count %d out of range [0,%d)", ec.Elite, ec.Population)
	}
	if ec.TournamentK < 1 || ec.TournamentK > ec.Population {
		return fmt.Errorf("core: tournament size %d out of range", ec.TournamentK)
	}
	if ec.MutationRate < 0 || ec.MutationRate > 1 {
		return fmt.Errorf("core: mutation rate %f out of [0,1]", ec.MutationRate)
	}
	if ec.CrossoverRate < 0 || ec.CrossoverRate > 1 {
		return fmt.Errorf("core: crossover rate %f out of [0,1]", ec.CrossoverRate)
	}
	return nil
}

type individual struct {
	genome  []int
	reward  float64
	sol     *Solution // nil when infeasible
	penalty float64
}

// RunEvolution explores the same co-design space as Run with a generational
// evolutionary algorithm instead of the RNN controller. It is deterministic
// in Config.Seed and honours Config.Refine for the final exploit phase.
func (x *Explorer) RunEvolution(ec EvolutionConfig) *Result {
	res, _ := x.RunEvolutionContext(context.Background(), ec) //lint:allow ctxplumb compat shim: non-ctx public API delegates to the ctx variant
	return res
}

// RunEvolutionContext is RunEvolution with cooperative cancellation: the
// context is checked per individual evaluation, so cancellation or a deadline
// aborts the search promptly. On cancellation it returns the partial result
// (completed generations) together with ctx's error. Cancellation during
// refinement follows RunContext's rule: completed refine starts are kept and
// nothing more is refined. Uncancelled runs are bit-identical to
// RunEvolution.
func (x *Explorer) RunEvolutionContext(ctx context.Context, ec EvolutionConfig) (*Result, error) {
	if err := ec.Validate(); err != nil {
		panic(err)
	}
	var runErr error
	rng := stats.NewRNG(x.Cfg.Seed ^ 0xea)
	hopSeed := x.Cfg.Seed ^ 0xea40b
	specs := x.ctrl.Specs()
	res := &Result{Workload: x.W}

	randGenome := func() []int {
		g := make([]int, len(specs))
		for i, s := range specs {
			g[i] = rng.Intn(s.NumOptions)
		}
		return g
	}

	// evaluate scores one genome of generation gen, recording it when it is
	// feasible; a done context aborts the underlying HAP solve promptly and
	// returns ctx's error (the individual is discarded).
	evaluate := func(gen int, g []int) (individual, error) {
		ind := individual{genome: append([]int(nil), g...)}
		choices, nets, err := x.decodeArch(g[:x.archLen])
		if err != nil {
			ind.reward = -1e9
			return ind, nil
		}
		d := x.decodeDesign(g)
		m, err := x.eval.HWEvalCtx(ctx, nets, d)
		if err != nil {
			return individual{}, err
		}
		pen := x.eval.Penalty(m)
		ind.penalty = pen
		if pen > 0 {
			// Early pruning, EA flavor: infeasible individuals are ranked by
			// penalty alone and never trained.
			ind.reward = x.eval.Reward(0, pen)
			return ind, nil
		}
		ind.sol = x.solution(gen, g, choices, nets, m)
		ind.reward = ind.sol.Reward
		res.explored(ind.sol)
		return ind, nil
	}

	// prev is the work snapshot at the last event; the first generation's
	// event also carries the initial population's evaluations.
	prev := x.work()
	pop := make([]individual, 0, ec.Population)
	for i := 0; i < ec.Population; i++ {
		ind, err := evaluate(0, randGenome())
		if err != nil {
			return x.finish(ctx, res, err, hopSeed)
		}
		pop = append(pop, ind)
	}

	tournament := func() individual {
		best := pop[rng.Intn(len(pop))]
		for k := 1; k < ec.TournamentK; k++ {
			c := pop[rng.Intn(len(pop))]
			if c.reward > best.reward {
				best = c
			}
		}
		return best
	}

genLoop:
	for gen := 1; gen <= ec.Generations; gen++ {
		sort.Slice(pop, func(i, j int) bool { return pop[i].reward > pop[j].reward })
		next := make([]individual, 0, ec.Population)
		for i := 0; i < ec.Elite; i++ {
			next = append(next, pop[i])
		}
		for len(next) < ec.Population {
			if err := ctx.Err(); err != nil {
				runErr = err
				break genLoop
			}
			a := tournament()
			child := append([]int(nil), a.genome...)
			if rng.Float64() < ec.CrossoverRate {
				b := tournament()
				for i := range child {
					if rng.Float64() < 0.5 {
						child[i] = b.genome[i]
					}
				}
			}
			for i, s := range specs {
				if rng.Float64() < ec.MutationRate {
					child[i] = rng.Intn(s.NumOptions)
				}
			}
			ind, err := evaluate(gen, child)
			if err != nil {
				runErr = err
				break genLoop
			}
			next = append(next, ind)
		}
		pop = next

		bestPen := pop[0].penalty
		feasible := false
		var bestReward float64
		for _, ind := range pop {
			if ind.penalty < bestPen {
				bestPen = ind.penalty
			}
			if ind.reward > bestReward || !feasible {
				bestReward = ind.reward
			}
			if ind.sol != nil {
				feasible = true
			}
		}
		st := EpisodeStats{
			Episode:     gen,
			Reward:      bestReward,
			BestPenalty: bestPen,
			Feasible:    feasible,
			Pruned:      !feasible,
		}
		cur := x.work()
		st.setDeltas(prev, cur)
		prev = cur
		x.endEpisode(res, st)
	}
	return x.finish(ctx, res, runErr, hopSeed)
}
