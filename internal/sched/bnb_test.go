package sched

import (
	"math"
	"testing"
	"testing/quick"

	"nasaic/internal/stats"
)

// The branch-and-bound oracle (bnb_reference_test.go) must agree with
// ExhaustiveCtx wherever both run.
func TestBnBMatchesExhaustiveSmall(t *testing.T) {
	for _, deadline := range []int64{45, 60, 90, 200} {
		p := twoAccelProblem(deadline)
		opt, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		bnb, complete, err := referenceBranchAndBound(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !complete {
			t.Fatalf("deadline %d: budget exhausted on a tiny instance", deadline)
		}
		if opt.Feasible != bnb.Feasible {
			t.Errorf("deadline %d: feasibility mismatch exhaustive=%v bnb=%v",
				deadline, opt.Feasible, bnb.Feasible)
		}
		if opt.Feasible && math.Abs(opt.EnergyNJ-bnb.EnergyNJ) > 1e-9 {
			t.Errorf("deadline %d: energy mismatch exhaustive=%f bnb=%f",
				deadline, opt.EnergyNJ, bnb.EnergyNJ)
		}
	}
}

// Property: on random small instances the oracle equals the exhaustive
// optimum.
func TestBnBOptimalRandom(t *testing.T) {
	rng := stats.NewRNG(23)
	f := func(seed uint32) bool {
		_ = seed
		p := Problem{NumAccels: 2, Deadline: int64(20 + rng.Intn(120))}
		nChains := 1 + rng.Intn(2)
		for c := 0; c < nChains; c++ {
			nl := 1 + rng.Intn(4)
			ch := Chain{Name: "c"}
			for l := 0; l < nl; l++ {
				ch.Layers = append(ch.Layers, Layer{Name: "l", Options: []Option{
					{Cycles: int64(1 + rng.Intn(50)), EnergyNJ: 1 + 10*rng.Float64()},
					{Cycles: int64(1 + rng.Intn(50)), EnergyNJ: 1 + 10*rng.Float64()},
				}})
			}
			p.Chains = append(p.Chains, ch)
		}
		opt, err := exhaustive(p)
		if err != nil {
			return false
		}
		bnb, complete, err := referenceBranchAndBound(p, 1<<20)
		if err != nil || !complete {
			return false
		}
		if opt.Feasible != bnb.Feasible {
			return false
		}
		return !opt.Feasible || math.Abs(opt.EnergyNJ-bnb.EnergyNJ) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Beyond ExhaustiveCtx's size guard the branch-and-bound oracle is the exact
// reference: the heuristic must never beat an optimum it proved.
func TestBnBMediumInstance(t *testing.T) {
	rng := stats.NewRNG(31)
	p := Problem{NumAccels: 3, Deadline: 600}
	for c := 0; c < 2; c++ {
		ch := Chain{Name: "net"}
		for l := 0; l < 14; l++ { // 3^28 assignments: far beyond ExhaustiveCtx
			opts := make([]Option, 3)
			for j := range opts {
				opts[j] = Option{Cycles: int64(5 + rng.Intn(60)), EnergyNJ: 1 + 20*rng.Float64()}
			}
			ch.Layers = append(ch.Layers, Layer{Name: "l", Options: opts})
		}
		p.Chains = append(p.Chains, ch)
	}
	if _, err := exhaustive(p); err == nil {
		t.Fatal("instance unexpectedly small enough for exhaustive search")
	}
	res, complete, err := referenceBranchAndBound(p, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected a feasible schedule at a loose deadline")
	}
	// The heuristic cannot beat an exact result when the search completed.
	h, err := heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	if complete && h.Feasible && h.EnergyNJ < res.EnergyNJ-1e-9 {
		t.Errorf("heuristic energy %f beats 'exact' BnB %f", h.EnergyNJ, res.EnergyNJ)
	}
}
