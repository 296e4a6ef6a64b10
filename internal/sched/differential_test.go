package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nasaic/internal/stats"
)

// randomProblem generates a HAP instance. scale multiplies the energies so
// the float-margin arguments get exercised at paper-like magnitudes (~1e8 nJ
// per layer), not just at toy scale.
func randomProblem(rng *stats.RNG, maxChains, maxLayers, numAccels int, scale float64) Problem {
	p := Problem{NumAccels: numAccels}
	nChains := 1 + rng.Intn(maxChains)
	for c := 0; c < nChains; c++ {
		ch := Chain{Name: fmt.Sprintf("c%d", c)}
		nl := 1 + rng.Intn(maxLayers)
		for l := 0; l < nl; l++ {
			layer := Layer{Name: fmt.Sprintf("c%d_l%d", c, l)}
			for j := 0; j < numAccels; j++ {
				layer.Options = append(layer.Options, Option{
					Cycles:      int64(1 + rng.Intn(60)),
					EnergyNJ:    (1 + 10*rng.Float64()) * scale,
					BufferBytes: int64(rng.Intn(4096)),
				})
			}
			ch.Layers = append(ch.Layers, layer)
		}
		p.Chains = append(p.Chains, ch)
	}
	// Mix of unmeetable, tight and loose deadlines so both heuristic phases
	// and the exhaustive fallback path get exercised.
	p.Deadline = int64(5 + rng.Intn(60*p.Size()/2+1))
	return p
}

// mustEqualResults enforces the bit-identity contract: same assignment, same
// integer makespan, bit-identical float energy, same buffer demand and
// feasibility.
func mustEqualResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Fatalf("%s: assignment diverged\n got %v\nwant %v", label, got.Assign, want.Assign)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %d != reference %d", label, got.Makespan, want.Makespan)
	}
	if math.Float64bits(got.EnergyNJ) != math.Float64bits(want.EnergyNJ) {
		t.Fatalf("%s: energy %v not bit-identical to reference %v (diff %g)",
			label, got.EnergyNJ, want.EnergyNJ, got.EnergyNJ-want.EnergyNJ)
	}
	if !reflect.DeepEqual(got.BufferDemand, want.BufferDemand) {
		t.Fatalf("%s: buffer demand %v != reference %v", label, got.BufferDemand, want.BufferDemand)
	}
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v != reference %v", label, got.Feasible, want.Feasible)
	}
}

// TestDifferentialEvaluate drives the argmin simulator against the original
// O(chains) scan on random instances and random assignments.
func TestDifferentialEvaluate(t *testing.T) {
	rng := stats.NewRNG(101)
	for trial := 0; trial < 400; trial++ {
		scale := 1.0
		if trial%3 == 0 {
			scale = 1e8
		}
		p := randomProblem(rng, 4, 8, 1+rng.Intn(4), scale)
		a := make(Assignment, len(p.Chains))
		for ci, c := range p.Chains {
			a[ci] = make([]int, len(c.Layers))
			for li := range c.Layers {
				a[ci][li] = rng.Intn(p.NumAccels)
			}
		}
		got, err := Evaluate(p, a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceEvaluate(p, a)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDifferentialHeuristic drives the incremental solver (O(1) move screen,
// scratch reuse, checkpointed scan) against the original full-Evaluate-per-move
// refinement.
func TestDifferentialHeuristic(t *testing.T) {
	rng := stats.NewRNG(202)
	for trial := 0; trial < 120; trial++ {
		scale := 1.0
		if trial%3 == 0 {
			scale = 1e8
		}
		p := randomProblem(rng, 3, 7, 1+rng.Intn(3), scale)
		got, err := heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDifferentialHeuristicLarge runs the solver and the test-only
// full-resimulation heuristic on instances of up to four 20-layer chains over
// four sub-accelerators, each topped up to at least 48 candidate moves per
// round, against the reference.
func TestDifferentialHeuristicLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances")
	}
	rng := stats.NewRNG(303)
	for trial := 0; trial < 6; trial++ {
		p := randomProblem(rng, 4, 20, 4, 1e6)
		for p.Size()*(p.NumAccels-1) < 48 {
			ci := rng.Intn(len(p.Chains))
			l := p.Chains[ci].Layers[0]
			p.Chains[ci].Layers = append(p.Chains[ci].Layers, l)
		}
		want, err := referenceHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
		full, err := fullResimHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d full resimulation", trial), full, want)
	}
}

// TestDifferentialExhaustive drives the pruned DFS enumeration against the
// original full enumeration.
func TestDifferentialExhaustive(t *testing.T) {
	rng := stats.NewRNG(404)
	for trial := 0; trial < 80; trial++ {
		scale := 1.0
		if trial%3 == 0 {
			scale = 1e8
		}
		p := randomProblem(rng, 2, 4, 1+rng.Intn(3), scale)
		got, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDifferentialExhaustiveDeep checks the pruned enumeration against the
// plain one on 2^14-assignment instances, four times the largest that HAP
// hands to ExhaustiveCtx, so pruning runs deep and long.
func TestDifferentialExhaustiveDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("2^14-leaf enumerations")
	}
	rng := stats.NewRNG(505)
	for trial := 0; trial < 3; trial++ {
		p := Problem{NumAccels: 2}
		for c := 0; c < 2; c++ {
			ch := Chain{Name: fmt.Sprintf("c%d", c)}
			for l := 0; l < 7; l++ {
				layer := Layer{Name: fmt.Sprintf("c%d_l%d", c, l)}
				for j := 0; j < 2; j++ {
					layer.Options = append(layer.Options, Option{
						Cycles:      int64(1 + rng.Intn(60)),
						EnergyNJ:    (1 + 10*rng.Float64()) * 1e7,
						BufferBytes: int64(rng.Intn(4096)),
					})
				}
				ch.Layers = append(ch.Layers, layer)
			}
			p.Chains = append(p.Chains, ch)
		}
		// One unmeetable, one tight, one loose deadline.
		p.Deadline = []int64{3, 250, 100000}[trial]
		got, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDifferentialCheckpointResume pins the checkpointed simulator against
// full simulation at the engine level: for every site of a random assignment
// and every alternative sub-accelerator, resuming from the site's snapshot
// must reproduce the full run bit for bit — makespan, float energy bits,
// buffer demand — and agree with runBounded on every early-abort decision.
func TestDifferentialCheckpointResume(t *testing.T) {
	rng := stats.NewRNG(707)
	for trial := 0; trial < 120; trial++ {
		scale := 1.0
		if trial%3 == 0 {
			scale = 1e8
		}
		// maxChains 1 exercises single-chain snapshots too.
		p := randomProblem(rng, 1+rng.Intn(4), 8, 2+rng.Intn(3), scale)
		a := make(Assignment, len(p.Chains))
		for ci, c := range p.Chains {
			a[ci] = make([]int, len(c.Layers))
			for li := range c.Layers {
				a[ci][li] = rng.Intn(p.NumAccels)
			}
		}
		ev := newEvaluator(&p)
		ck := newCkpts(&p)
		ev.runCheckpointed(a, ck)
		full := newEvaluator(&p)
		si := 0
		for ci := range p.Chains {
			for li := range p.Chains[ci].Layers {
				orig := a[ci][li]
				for j := 0; j < p.NumAccels; j++ {
					if j == orig {
						continue
					}
					a[ci][li] = j
					wantOK := full.runBounded(a, math.MaxInt64, math.Inf(1), nil)
					gotOK := ev.resumeBounded(a, si, ck, math.MaxInt64, math.Inf(1))
					if !wantOK || !gotOK {
						t.Fatalf("trial %d site %d: unbounded run aborted (%v %v)", trial, si, wantOK, gotOK)
					}
					if ev.makespan != full.makespan ||
						math.Float64bits(ev.energy) != math.Float64bits(full.energy) ||
						!reflect.DeepEqual(ev.buf, full.buf) {
						t.Fatalf("trial %d site %d accel %d: resume (%d %v %v) != full (%d %v %v)",
							trial, si, j, ev.makespan, ev.energy, ev.buf,
							full.makespan, full.energy, full.buf)
					}
					// Bounded agreement at an aggressive bound pair: the
					// abort decision must match the full bounded run.
					mkB := full.makespan // forces an abort in the replayed schedule
					eB := full.energy * (0.25 + rng.Float64())
					if got, want := ev.resumeBounded(a, si, ck, mkB, eB), full.runBounded(a, mkB, eB, nil); got != want {
						t.Fatalf("trial %d site %d accel %d: bounded resume %v != full %v", trial, si, j, got, want)
					}
					a[ci][li] = orig
				}
				si++
			}
		}
	}
}

// TestDifferentialCheckpointIncremental pins resumeCheckpointed (the arena
// update after an applied move) against a from-scratch checkpointed run:
// after a chain of random single-layer moves, every snapshot in the
// incrementally maintained arena must behave exactly like a fresh one.
func TestDifferentialCheckpointIncremental(t *testing.T) {
	rng := stats.NewRNG(808)
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 1+rng.Intn(3), 7, 2+rng.Intn(3), 1e8)
		a := make(Assignment, len(p.Chains))
		for ci, c := range p.Chains {
			a[ci] = make([]int, len(c.Layers))
			for li := range c.Layers {
				a[ci][li] = rng.Intn(p.NumAccels)
			}
		}
		ev := newEvaluator(&p)
		ck := newCkpts(&p)
		ev.runCheckpointed(a, ck)
		for step := 0; step < 5; step++ {
			// Apply one random move and update the arena incrementally.
			si := rng.Intn(p.Size())
			k, ci, li := si, 0, 0
			for ci = range p.Chains {
				if k < len(p.Chains[ci].Layers) {
					li = k
					break
				}
				k -= len(p.Chains[ci].Layers)
			}
			a[ci][li] = rng.Intn(p.NumAccels)
			ev.resumeCheckpointed(a, si, ck)

			fresh := newEvaluator(&p)
			fck := newCkpts(&p)
			fresh.runCheckpointed(a, fck)
			if ev.makespan != fresh.makespan ||
				math.Float64bits(ev.energy) != math.Float64bits(fresh.energy) ||
				!reflect.DeepEqual(ev.buf, fresh.buf) {
				t.Fatalf("trial %d step %d: incremental metrics (%d %v) != fresh (%d %v)",
					trial, step, ev.makespan, ev.energy, fresh.makespan, fresh.energy)
			}
			// Every site's snapshot must replay identically out of both
			// arenas (this compares the full arena contents behaviorally).
			probe := newEvaluator(&p)
			for s2 := 0; s2 < p.Size(); s2++ {
				if !ck.captured[s2] || !fck.captured[s2] {
					t.Fatalf("trial %d step %d: site %d missing a snapshot (%v %v)",
						trial, step, s2, ck.captured[s2], fck.captured[s2])
				}
				probe.resumeBounded(a, s2, fck, math.MaxInt64, math.Inf(1))
				wantMk, wantE := probe.makespan, probe.energy
				probe.resumeBounded(a, s2, ck, math.MaxInt64, math.Inf(1))
				if probe.makespan != wantMk || math.Float64bits(probe.energy) != math.Float64bits(wantE) {
					t.Fatalf("trial %d step %d site %d: incremental snapshot diverged", trial, step, s2)
				}
			}
		}
	}
}

// TestDifferentialHeuristicNoCheckpoint pins the test-only full-resimulation
// heuristic (the control CI's checkpoint gate times) to the reference, and
// hence to the checkpointed solver, which TestDifferentialHeuristic pins.
func TestDifferentialHeuristicNoCheckpoint(t *testing.T) {
	rng := stats.NewRNG(909)
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 3, 7, 1+rng.Intn(3), 1e8)
		got, err := fullResimHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceHeuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestHeuristicNeverBeatsExhaustive: on every exhaustible instance where both
// find a feasible schedule, the heuristic's energy must be >= the optimum —
// anything else means the exact solver is broken.
func TestHeuristicNeverBeatsExhaustive(t *testing.T) {
	rng := stats.NewRNG(606)
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 2, 4, 2, 1)
		opt, err := exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Feasible && h.Feasible && h.EnergyNJ < opt.EnergyNJ-1e-9 {
			t.Fatalf("trial %d: heuristic energy %f beats exhaustive optimum %f",
				trial, h.EnergyNJ, opt.EnergyNJ)
		}
	}
}

// TestWarmSimulatorAllocs pins the simulator's inner loop as allocation-free
// once its evaluator and checkpoint arena are built: every candidate move of
// a scan runs resumeBounded, and the exhaustive leaves run runBounded.
func TestWarmSimulatorAllocs(t *testing.T) {
	p := benchMedium()
	a := minLatencyAssignment(p)
	ev := newEvaluator(&p)
	ck := newCkpts(&p)
	ev.runCheckpointed(a, ck)
	si := p.Size() / 2
	allocs := testing.AllocsPerRun(100, func() {
		ev.runBounded(a, math.MaxInt64, math.Inf(1), nil)
		ev.resumeBounded(a, si, ck, math.MaxInt64, math.Inf(1))
		ev.resumeCheckpointed(a, si, ck)
	})
	if allocs != 0 {
		t.Fatalf("warm simulator allocates %v times per run, want 0", allocs)
	}
}
