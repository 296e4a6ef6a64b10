package core

import (
	"context"
	"testing"

	"nasaic/internal/workload"
)

func TestEvolutionConfigValidate(t *testing.T) {
	if err := DefaultEvolutionConfig().Validate(); err != nil {
		t.Fatalf("default evolution config invalid: %v", err)
	}
	muts := []func(*EvolutionConfig){
		func(c *EvolutionConfig) { c.Population = 1 },
		func(c *EvolutionConfig) { c.Generations = 0 },
		func(c *EvolutionConfig) { c.Elite = c.Population },
		func(c *EvolutionConfig) { c.TournamentK = 0 },
		func(c *EvolutionConfig) { c.MutationRate = 1.5 },
		func(c *EvolutionConfig) { c.CrossoverRate = -0.1 },
	}
	for i, m := range muts {
		c := DefaultEvolutionConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

// evolve runs ec on x uncancelled, failing t on an error.
func evolve(t testing.TB, x *Explorer, ec EvolutionConfig) *Result {
	t.Helper()
	res, err := x.RunEvolutionContext(context.Background(), ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvolutionFindsFeasibleW3(t *testing.T) {
	cfg := fastConfig(5)
	x, err := New(workload.W3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec := DefaultEvolutionConfig()
	ec.Population = 24
	ec.Generations = 10
	res := evolve(t, x, ec)
	if res.Best == nil {
		t.Fatal("evolution found no feasible W3 solution")
	}
	sp := workload.W3().Specs
	for _, s := range res.Explored {
		if s.Latency > sp.LatencyCycles || s.EnergyNJ > sp.EnergyNJ || s.AreaUM2 > sp.AreaUM2 {
			t.Errorf("explored solution violates specs: %s", s)
			break
		}
	}
	if len(res.History) != 10 {
		t.Errorf("history length %d, want 10 generations", len(res.History))
	}
	// Reasonable quality: must beat the smallest-network floor.
	if res.Best.Weighted < 0.80 {
		t.Errorf("evolution best weighted %.4f suspiciously low", res.Best.Weighted)
	}
}

func TestEvolutionDeterministic(t *testing.T) {
	run := func() *Result {
		x, err := New(workload.W3(), fastConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		ec := DefaultEvolutionConfig()
		ec.Population = 16
		ec.Generations = 6
		return evolve(t, x, ec)
	}
	a, b := run(), run()
	if (a.Best == nil) != (b.Best == nil) {
		t.Fatal("evolution determinism broken")
	}
	if a.Best != nil && (a.Best.Weighted != b.Best.Weighted || a.Best.Design.String() != b.Best.Design.String()) {
		t.Errorf("same seed produced different evolution bests:\n%s\n%s", a.Best, b.Best)
	}
}

func TestEvolutionEarlyPruning(t *testing.T) {
	w := workload.W1()
	w.Specs.LatencyCycles = 10
	w.Specs.EnergyNJ = 10
	w.Specs.AreaUM2 = 10
	cfg := fastConfig(2)
	x, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec := DefaultEvolutionConfig()
	ec.Population = 10
	ec.Generations = 3
	res := evolve(t, x, ec)
	if res.Best != nil {
		t.Error("impossible specs must yield no feasible individual")
	}
	if res.Trainings != 0 {
		t.Errorf("infeasible individuals must never be trained, got %d trainings", res.Trainings)
	}
}
