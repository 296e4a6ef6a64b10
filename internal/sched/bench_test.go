package sched

import (
	"context"
	"fmt"
	"testing"

	"nasaic/internal/stats"
)

// benchProblem builds a deterministic instance with a tight-but-feasible
// deadline (1.3x the minimum-latency makespan) so the ratio-greedy phase has
// real refinement work to do.
func benchProblem(seed uint64, chains, layers, accels int) Problem {
	rng := stats.NewRNG(int64(seed))
	p := Problem{NumAccels: accels}
	for c := 0; c < chains; c++ {
		ch := Chain{Name: fmt.Sprintf("c%d", c)}
		for l := 0; l < layers; l++ {
			layer := Layer{Name: fmt.Sprintf("c%d_l%d", c, l)}
			for j := 0; j < accels; j++ {
				layer.Options = append(layer.Options, Option{
					Cycles:      int64(50 + rng.Intn(500)),
					EnergyNJ:    (1 + 10*rng.Float64()) * 1e7,
					BufferBytes: int64(1024 + rng.Intn(65536)),
				})
			}
			ch.Layers = append(ch.Layers, layer)
		}
		p.Chains = append(p.Chains, ch)
	}
	p.Deadline = 1 << 62
	seedRes, err := Evaluate(p, minLatencyAssignment(p))
	if err != nil {
		panic(err)
	}
	p.Deadline = seedRes.Makespan * 13 / 10
	return p
}

// Instance sizes: small is exhaustible (2^8 assignments), medium (72 moves
// per round) and large (288) exercise the heuristic's move scan.
func benchSmall() Problem  { return benchProblem(1, 2, 4, 2) }
func benchMedium() Problem { return benchProblem(2, 3, 12, 3) }
func benchLarge() Problem  { return benchProblem(3, 4, 24, 4) }

func benchEvaluate(b *testing.B, p Problem) {
	a := minLatencyAssignment(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(p, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateSmall(b *testing.B)  { benchEvaluate(b, benchSmall()) }
func BenchmarkEvaluateMedium(b *testing.B) { benchEvaluate(b, benchMedium()) }
func BenchmarkEvaluateLarge(b *testing.B)  { benchEvaluate(b, benchLarge()) }

// heuristic and exhaustive run the production solvers uncancelled, in the
// signature the reference solvers share.
func heuristic(p Problem) (Result, error)  { return HeuristicCtx(context.Background(), p) }
func exhaustive(p Problem) (Result, error) { return ExhaustiveCtx(context.Background(), p) }

// benchSolver times one solver entry point and reports the schedule energy,
// so paired new/Reference benchmarks can be checked for identical results.
func benchSolver(b *testing.B, p Problem, f func(Problem) (Result, error)) {
	b.ResetTimer()
	var energy float64
	for i := 0; i < b.N; i++ {
		res, err := f(p)
		if err != nil {
			b.Fatal(err)
		}
		energy = res.EnergyNJ
	}
	b.ReportMetric(energy, "energy_nj")
}

func BenchmarkHeuristicSmall(b *testing.B)  { benchSolver(b, benchSmall(), heuristic) }
func BenchmarkHeuristicMedium(b *testing.B) { benchSolver(b, benchMedium(), heuristic) }
func BenchmarkHeuristicLarge(b *testing.B)  { benchSolver(b, benchLarge(), heuristic) }

// The FullResim benchmarks time the test-only full-resimulation heuristic
// (the same screens and bounds, but every candidate move replays the whole
// schedule) on the same instances. The ns/op ratio against
// BenchmarkHeuristic* is the checkpointed move scan's speedup; CI's bench
// smoke records it and fails if it drops more than 10% below the >=1.5x
// acceptance bar.
func BenchmarkHeuristicFullResimMedium(b *testing.B) {
	benchSolver(b, benchMedium(), fullResimHeuristic)
}
func BenchmarkHeuristicFullResimLarge(b *testing.B) {
	benchSolver(b, benchLarge(), fullResimHeuristic)
}

// The Reference benchmarks time the retained pre-rewrite solver on the same
// instances; the ns/op ratio against BenchmarkHeuristic* is the PR's
// speedup (the acceptance bar is >=5x at the medium size).
func BenchmarkHeuristicReferenceSmall(b *testing.B) {
	benchSolver(b, benchSmall(), referenceHeuristic)
}
func BenchmarkHeuristicReferenceMedium(b *testing.B) {
	benchSolver(b, benchMedium(), referenceHeuristic)
}
func BenchmarkHeuristicReferenceLarge(b *testing.B) {
	benchSolver(b, benchLarge(), referenceHeuristic)
}

func BenchmarkExhaustiveSmall(b *testing.B) { benchSolver(b, benchSmall(), exhaustive) }

// BenchmarkExhaustiveLarge enumerates 2^14 assignments, four times the
// largest instance HAP hands to ExhaustiveCtx.
func BenchmarkExhaustiveLarge(b *testing.B) {
	benchSolver(b, benchProblem(4, 2, 7, 2), exhaustive)
}

func BenchmarkExhaustiveReferenceSmall(b *testing.B) {
	benchSolver(b, benchSmall(), referenceExhaustive)
}

func BenchmarkExhaustiveReferenceLarge(b *testing.B) {
	benchSolver(b, benchProblem(4, 2, 7, 2), referenceExhaustive)
}

func benchHAP(b *testing.B, p Problem) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HAP(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHAPSmall(b *testing.B)  { benchHAP(b, benchSmall()) }
func BenchmarkHAPMedium(b *testing.B) { benchHAP(b, benchMedium()) }
func BenchmarkHAPLarge(b *testing.B)  { benchHAP(b, benchLarge()) }
