package search

import (
	"context"
	"math"
	"testing"

	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

func fastCfg(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// The paper's headline comparison: architectures from spec-blind NAS cannot
// be made to fit the specs by any amount of hardware search (Table I).
func TestNASToASICViolatesSpecs(t *testing.T) {
	for _, w := range []workload.Workload{workload.W1(), workload.W2()} {
		c, err := NASToASIC(context.Background(), w, fastCfg(3), 150, 200)
		if err != nil {
			t.Fatal(err)
		}
		if c.Feasible {
			t.Errorf("%s: NAS→ASIC unexpectedly met the specs: L=%g E=%g A=%g",
				w.Name, float64(c.Latency), c.EnergyNJ, c.AreaUM2)
		}
		// The NAS networks should be near the accuracy ceiling.
		if c.Accuracies[0] < 0.93 {
			t.Errorf("%s: NAS CIFAR accuracy %f suspiciously low", w.Name, c.Accuracies[0])
		}
	}
}

func TestASICToHWNASMeetsSpecs(t *testing.T) {
	for _, w := range []workload.Workload{workload.W1(), workload.W2()} {
		c, err := ASICToHWNAS(context.Background(), w, fastCfg(3), 500, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Feasible {
			t.Errorf("%s: ASIC→HW-NAS found no feasible architecture", w.Name)
		}
		sp := w.Specs
		if c.Latency > sp.LatencyCycles || c.EnergyNJ > sp.EnergyNJ || c.AreaUM2 > sp.AreaUM2 {
			t.Errorf("%s: claimed-feasible candidate violates specs", w.Name)
		}
	}
}

// MonteCarlo's star and square are the maximum-accuracy and the
// closest-to-spec points over the feasible samples: a test-side loop replays
// the search's RNG draws, evaluates every sample and checks both picks.
func TestMonteCarloProducts(t *testing.T) {
	w := workload.W3()
	cfg := fastCfg(7)
	const runs = 400
	res, err := MonteCarlo(context.Background(), w, cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFeasible == nil {
		t.Fatal("no feasible point among 400 W3 samples (feasible region should be easy)")
	}
	if res.ClosestToSpec == nil {
		t.Fatal("no closest-to-spec point")
	}
	if !res.BestFeasible.Feasible || !res.ClosestToSpec.Feasible {
		t.Error("selected points must be feasible")
	}

	e, err := core.NewEvaluator(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.Specs
	dist := func(lat int64, en, area float64) float64 {
		dl := 1 - float64(lat)/float64(sp.LatencyCycles)
		de := 1 - en/sp.EnergyNJ
		da := 1 - area/sp.AreaUM2
		return dl*dl + de*de + da*da
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x3ca7e)
	maxWeighted, minDist := math.Inf(-1), math.Inf(1)
	feasible := 0
	for s := 0; s < runs; s++ {
		nets := make([]*dnn.Network, len(w.Tasks))
		for ti, task := range w.Tasks {
			nets[ti] = task.Space.MustDecode(task.Space.Random(rng))
		}
		m, err := e.HWEvalCtx(context.Background(), nets, cfg.HW.Random(rng))
		if err != nil {
			t.Fatal(err)
		}
		if !m.Feasible {
			continue
		}
		feasible++
		maxWeighted = math.Max(maxWeighted, w.Weighted(e.Accuracies(nets)))
		minDist = math.Min(minDist, dist(m.Latency, m.EnergyNJ, m.AreaUM2))
	}
	if feasible == 0 {
		t.Fatal("the replay found no feasible sample")
	}
	if res.BestFeasible.Weighted != maxWeighted {
		t.Errorf("BestFeasible weighted %v, want the feasible maximum %v", res.BestFeasible.Weighted, maxWeighted)
	}
	c := res.ClosestToSpec
	if got := dist(c.Latency, c.EnergyNJ, c.AreaUM2); got != minDist {
		t.Errorf("ClosestToSpec distance %v, want the feasible minimum %v", got, minDist)
	}
}

// Fig. 1's message: the closest-to-spec heuristic is generally not the
// accuracy-optimal feasible point. With enough samples the two must differ
// (weak form: best weighted >= closest's weighted).
func TestHeuristicNotBetterThanStar(t *testing.T) {
	res, err := MonteCarlo(context.Background(), workload.W3(), fastCfg(11), 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFeasible == nil || res.ClosestToSpec == nil {
		t.Skip("not enough feasible points")
	}
	if res.ClosestToSpec.Weighted > res.BestFeasible.Weighted {
		t.Error("closest-to-spec point cannot beat the best feasible point")
	}
}

func TestRandomDesignAlwaysValid(t *testing.T) {
	hw := core.DefaultConfig().HW
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		d := hw.Random(rng)
		if err := d.Validate(hw.Limits); err != nil {
			t.Fatalf("Space.Random produced invalid design: %v", err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := NASToASIC(context.Background(), workload.W1(), fastCfg(5), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NASToASIC(context.Background(), workload.W1(), fastCfg(5), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Design.String() != b.Design.String() || a.Weighted != b.Weighted {
		t.Error("NASToASIC not deterministic for a fixed seed")
	}
}
