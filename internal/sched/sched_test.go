package sched

import (
	"math"
	"testing"
	"testing/quick"

	"nasaic/internal/stats"
)

// twoAccelProblem builds a small instance where accelerator 0 is fast but
// power-hungry and accelerator 1 is slow but efficient.
func twoAccelProblem(deadline int64) Problem {
	mk := func(name string, fast, slow int64, eFast, eSlow float64) Layer {
		return Layer{Name: name, Options: []Option{
			{Cycles: fast, EnergyNJ: eFast, BufferBytes: 100},
			{Cycles: slow, EnergyNJ: eSlow, BufferBytes: 80},
		}}
	}
	return Problem{
		NumAccels: 2,
		Deadline:  deadline,
		Chains: []Chain{
			{Name: "net0", Layers: []Layer{
				mk("a0", 10, 30, 9, 3),
				mk("a1", 20, 50, 10, 4),
				mk("a2", 10, 25, 8, 3),
			}},
			{Name: "net1", Layers: []Layer{
				mk("b0", 15, 40, 7, 2),
				mk("b1", 10, 30, 6, 2),
			}},
		},
	}
}

func TestValidate(t *testing.T) {
	p := twoAccelProblem(100)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := p
	bad.NumAccels = 0
	if err := bad.Validate(); err == nil {
		t.Error("NumAccels=0 accepted")
	}
	bad2 := twoAccelProblem(100)
	bad2.Chains[0].Layers[0].Options = bad2.Chains[0].Layers[0].Options[:1]
	if err := bad2.Validate(); err == nil {
		t.Error("option-count mismatch accepted")
	}
	bad3 := twoAccelProblem(100)
	bad3.Chains[0].Layers[0].Options[0].Cycles = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero-cycle option accepted")
	}
}

func TestEvaluateChainDependency(t *testing.T) {
	p := twoAccelProblem(1000)
	// Everything on accelerator 0: chains contend, so the makespan must be
	// at least the total work (single resource).
	a := Assignment{{0, 0, 0}, {0, 0}}
	res, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10 + 20 + 10 + 15 + 10)
	if res.Makespan != want {
		t.Errorf("single-accelerator makespan = %d, want %d", res.Makespan, want)
	}
	// Split by chain: chains run in parallel; makespan = longest chain.
	a2 := Assignment{{0, 0, 0}, {1, 1}}
	res2, err := Evaluate(p, a2)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0 takes 40 on accelerator 0; chain 1 takes 40+30=70 on
	// accelerator 1; they overlap, so the makespan is the longer chain.
	if want2 := int64(40 + 30); res2.Makespan != want2 {
		t.Errorf("parallel makespan = %d, want %d", res2.Makespan, want2)
	}
}

func TestEvaluateEnergyAndBuffers(t *testing.T) {
	p := twoAccelProblem(1000)
	a := Assignment{{0, 1, 0}, {1, 0}}
	res, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	wantE := 9.0 + 4 + 8 + 2 + 6
	if math.Abs(res.EnergyNJ-wantE) > 1e-9 {
		t.Errorf("energy = %f, want %f", res.EnergyNJ, wantE)
	}
	if res.BufferDemand[0] != 100 || res.BufferDemand[1] != 80 {
		t.Errorf("buffer demand = %v, want [100 80]", res.BufferDemand)
	}
}

func TestEvaluateRejectsBadAssignments(t *testing.T) {
	p := twoAccelProblem(100)
	if _, err := Evaluate(p, Assignment{{0, 0, 0}}); err == nil {
		t.Error("chain-count mismatch accepted")
	}
	if _, err := Evaluate(p, Assignment{{0, 0}, {0, 0}}); err == nil {
		t.Error("layer-count mismatch accepted")
	}
	if _, err := Evaluate(p, Assignment{{0, 0, 5}, {0, 0}}); err == nil {
		t.Error("out-of-range accelerator accepted")
	}
}

func TestExhaustiveOptimalAndHeuristicFeasible(t *testing.T) {
	for _, deadline := range []int64{45, 60, 90, 200} {
		p := twoAccelProblem(deadline)
		opt, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Feasible != h.Feasible && opt.Feasible {
			t.Errorf("deadline %d: exact found a feasible schedule but heuristic did not", deadline)
		}
		if opt.Feasible && h.Feasible {
			if h.EnergyNJ < opt.EnergyNJ-1e-9 {
				t.Errorf("deadline %d: heuristic energy %f beats 'optimal' %f — exact solver broken",
					deadline, h.EnergyNJ, opt.EnergyNJ)
			}
			if h.EnergyNJ > opt.EnergyNJ*1.5+1e-9 {
				t.Errorf("deadline %d: heuristic energy %f more than 1.5x optimal %f",
					deadline, h.EnergyNJ, opt.EnergyNJ)
			}
		}
	}
}

// Looser deadline must never increase optimal energy (monotonicity).
func TestDeadlineMonotonicity(t *testing.T) {
	prev := math.Inf(1)
	for _, deadline := range []int64{45, 50, 60, 80, 120, 500} {
		p := twoAccelProblem(deadline)
		opt, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Feasible {
			continue
		}
		if opt.EnergyNJ > prev+1e-9 {
			t.Errorf("deadline %d: optimal energy %f worse than tighter deadline's %f",
				deadline, opt.EnergyNJ, prev)
		}
		prev = opt.EnergyNJ
	}
}

// The paper's Theorem: specs (LS, ES) are satisfiable iff HAP(LS) <= ES.
func TestTheoremHAPEquivalence(t *testing.T) {
	p := twoAccelProblem(80)
	re, res, err := HAP(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected a feasible schedule at deadline 80")
	}
	// Any ES >= re is satisfiable by this schedule; any ES < re is not,
	// because re is the minimum energy among deadline-meeting schedules
	// (verified against the exhaustive optimum).
	opt, err := exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re-opt.EnergyNJ) > 1e-9 {
		t.Errorf("HAP energy %f != exhaustive optimum %f", re, opt.EnergyNJ)
	}

	// Impossible deadline: HAP must report +Inf.
	pInf := twoAccelProblem(1)
	reInf, resInf, err := HAP(pInf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(reInf, 1) || resInf.Feasible {
		t.Error("HAP should return +Inf for an unmeetable deadline")
	}
}

// Property: on random instances small enough for exhaustive search, the
// heuristic is feasible whenever the optimum is, and within 2x of its
// energy.
func TestHeuristicNearOptimalRandom(t *testing.T) {
	rng := stats.NewRNG(11)
	f := func(seed uint32) bool {
		_ = seed
		nChains := 1 + rng.Intn(2)
		p := Problem{NumAccels: 2}
		totalLayers := 0
		for c := 0; c < nChains; c++ {
			nl := 1 + rng.Intn(4)
			totalLayers += nl
			ch := Chain{Name: "c"}
			for l := 0; l < nl; l++ {
				ch.Layers = append(ch.Layers, Layer{Name: "l", Options: []Option{
					{Cycles: int64(1 + rng.Intn(50)), EnergyNJ: 1 + 10*rng.Float64(), BufferBytes: 1},
					{Cycles: int64(1 + rng.Intn(50)), EnergyNJ: 1 + 10*rng.Float64(), BufferBytes: 1},
				}})
			}
			p.Chains = append(p.Chains, ch)
		}
		p.Deadline = int64(20 + rng.Intn(100))
		opt, err := exhaustive(p)
		if err != nil {
			return false
		}
		h, err := heuristic(p)
		if err != nil {
			return false
		}
		if opt.Feasible && !h.Feasible {
			return false
		}
		if opt.Feasible && h.EnergyNJ > 2*opt.EnergyNJ+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveSizeGuard(t *testing.T) {
	p := Problem{NumAccels: 3, Deadline: 100}
	ch := Chain{Name: "big"}
	for i := 0; i < 20; i++ {
		ch.Layers = append(ch.Layers, Layer{Name: "l", Options: []Option{
			{Cycles: 1, EnergyNJ: 1}, {Cycles: 1, EnergyNJ: 1}, {Cycles: 1, EnergyNJ: 1},
		}})
	}
	p.Chains = []Chain{ch}
	if _, err := exhaustive(p); err == nil {
		t.Error("exhaustive should refuse 3^20 assignments")
	}
}

// Regression: the heuristic's returned assignment must reproduce its own
// reported metrics when re-evaluated (an aliasing bug once made the Result
// carry a stale assignment).
func TestHeuristicAssignmentConsistent(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 30; trial++ {
		p := Problem{NumAccels: 2, Deadline: int64(30 + rng.Intn(150))}
		for c := 0; c < 2; c++ {
			ch := Chain{Name: "c"}
			for l := 0; l < 2+rng.Intn(6); l++ {
				ch.Layers = append(ch.Layers, Layer{Name: "l", Options: []Option{
					{Cycles: int64(1 + rng.Intn(40)), EnergyNJ: 1 + 10*rng.Float64()},
					{Cycles: int64(1 + rng.Intn(40)), EnergyNJ: 1 + 10*rng.Float64()},
				}})
			}
			p.Chains = append(p.Chains, ch)
		}
		res, err := heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Evaluate(p, res.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if re.Makespan != res.Makespan || math.Abs(re.EnergyNJ-res.EnergyNJ) > 1e-9 {
			t.Fatalf("trial %d: heuristic metrics (mk=%d, E=%f) not reproduced by its assignment (mk=%d, E=%f)",
				trial, res.Makespan, res.EnergyNJ, re.Makespan, re.EnergyNJ)
		}
	}
}
