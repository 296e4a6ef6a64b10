package search

import (
	"context"
	"testing"

	"nasaic/internal/core"
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

func TestMonteCarloProducts(t *testing.T) {
	w := workload.W3()
	res, err := MonteCarlo(context.Background(), w, fastCfg(7), 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 400 {
		t.Fatalf("All has %d points, want 400", len(res.All))
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
	// The star maximizes weighted accuracy among feasible points.
	for _, c := range res.All {
		if c.Feasible && c.Weighted > res.BestFeasible.Weighted {
			t.Error("BestFeasible is not the best feasible point")
		}
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
