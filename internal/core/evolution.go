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

// RunEvolutionContext is RunEvolution with cooperative cancellation. Each
// generation's children (and the initial population) are drawn first and
// then evaluated as one batch across Config.Workers goroutines; the batch is
// folded in draw order, so the result is bit-identical to evaluating one
// child at a time and to RunEvolution. The context is checked before every
// generation and by every evaluation, so cancellation or a deadline aborts
// the search promptly. A generation (or initial population) cancelled while
// its batch is evaluated records nothing: none of its children enters the
// result and no event is delivered. The partial result holds the completed
// generations and is returned with ctx's error. Cancellation during
// refinement follows RunContext's rule: completed refine starts are kept and
// nothing more is refined.
func (x *Explorer) RunEvolutionContext(ctx context.Context, ec EvolutionConfig) (*Result, error) {
	if err := ec.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(x.Cfg.Seed ^ 0xea)
	hopSeed := x.Cfg.Seed ^ 0xea40b
	specs := x.ctrl.Specs()
	res := &Result{Workload: x.W}

	// evaluate scores the genomes of generation gen as one batch and
	// appends the individuals to pop in genome order, recording the
	// feasible ones; a done context discards the whole batch and returns
	// ctx's error.
	evaluate := func(gen int, genomes [][]int, pop []individual) ([]individual, error) {
		cands := x.batch(len(genomes))
		for i, g := range genomes {
			cands[i].actions = g
			x.decode(&cands[i])
		}
		if err := x.evalBatch(ctx, cands); err != nil {
			return pop, err
		}
		for i := range cands {
			c := &cands[i]
			ind := individual{genome: c.actions, reward: -1e9}
			if !c.skip {
				ind.penalty = x.eval.Penalty(c.m)
				if ind.penalty > 0 {
					// Early pruning, EA flavor: infeasible individuals are
					// ranked by penalty alone and never trained.
					ind.reward = x.eval.Reward(0, ind.penalty)
				} else {
					x.train(c)
					ind.sol = x.solutionOf(gen, c)
					ind.reward = ind.sol.Reward
					res.explored(ind.sol)
				}
			}
			pop = append(pop, ind)
		}
		return pop, nil
	}

	// prev is the work snapshot at the last event; the first generation's
	// event also carries the initial population's evaluations.
	prev := x.work()
	genomes := make([][]int, ec.Population)
	for i := range genomes {
		g := make([]int, len(specs))
		for j, s := range specs {
			g[j] = rng.Intn(s.NumOptions)
		}
		genomes[i] = g
	}
	pop, err := evaluate(0, genomes, make([]individual, 0, ec.Population))
	if err != nil {
		return x.finish(ctx, res, err, hopSeed)
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

	var runErr error
	for gen := 1; gen <= ec.Generations; gen++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		sort.Slice(pop, func(i, j int) bool { return pop[i].reward > pop[j].reward })
		// The children's draws read only rng and the previous population,
		// never an evaluation result, so drawing them all before the batch
		// consumes rng exactly as evaluating each one as it is drawn.
		genomes = genomes[:0]
		for len(genomes) < ec.Population-ec.Elite {
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
			genomes = append(genomes, child)
		}
		next, err := evaluate(gen, genomes, append(make([]individual, 0, ec.Population), pop[:ec.Elite]...))
		if err != nil {
			runErr = err
			break
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
