package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// cancelProblem builds an instance big enough that a solve takes visible
// time, so cancellation has something to abort.
func cancelProblem(layers, accels int) Problem {
	p := Problem{NumAccels: accels, Deadline: 1 << 40}
	ch := Chain{Name: "c"}
	for i := 0; i < layers; i++ {
		l := Layer{Name: "l"}
		for j := 0; j < accels; j++ {
			l.Options = append(l.Options, Option{
				Cycles:   int64(100 + (i*7+j*13)%97),
				EnergyNJ: float64(50 + (i*11+j*3)%89),
			})
		}
		ch.Layers = append(ch.Layers, l)
	}
	p.Chains = []Chain{ch}
	return p
}

func TestHeuristicCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := HeuristicCtx(ctx, cancelProblem(40, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("HeuristicCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestExhaustiveCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// 10 layers x 4 accels = ~1M leaves: far more than one ctxCheckLeaves
	// window, so the poll must fire.
	_, err := ExhaustiveCtx(ctx, cancelProblem(10, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExhaustiveCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestExhaustiveCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // an expired deadline must surface as DeadlineExceeded
	start := time.Now()
	_, err := ExhaustiveCtx(ctx, cancelProblem(10, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExhaustiveCtx past deadline: err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("ExhaustiveCtx took %v after an expired deadline", el)
	}
}

// errAfterCtx reports no error for the first n Err() polls, then a cancel:
// it lands the cancellation at a deterministic point inside the solver's
// move scan, where a timer could not.
type errAfterCtx struct {
	context.Context
	left atomic.Int64
}

func newErrAfterCtx(n int64) *errAfterCtx {
	c := &errAfterCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *errAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestHeuristicCtxCancelMidScanPartialBest cancels HeuristicCtx in the
// middle of a move scan and requires (a) the partial best returned alongside
// the error to be a real, self-consistent schedule of the instance, (b) no
// goroutines left behind, and (c) a following solve on the same instance to
// be untouched by the aborted one — no stale checkpoint reuse across calls.
func TestHeuristicCtxCancelMidScanPartialBest(t *testing.T) {
	p := cancelProblem(40, 4)
	p.Deadline = 170 * 40 / 2 // tight enough that refinement has real work
	before := runtime.NumGoroutine()
	// Any complete solve polls ctx at least 42 times (entry + round check +
	// one poll per site of the first 40-site scan), so every count below
	// that is guaranteed to cancel mid-solve — most of them mid-scan.
	for _, polls := range []int64{1, 3, 10, 25, 39} {
		ctx := newErrAfterCtx(polls)
		res, err := HeuristicCtx(ctx, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err = %v, want context.Canceled", polls, err)
		}
		if res.Assign == nil {
			t.Fatalf("polls=%d: cancelled solve lost the partial best", polls)
		}
		// The partial best must be exactly what a fresh evaluation of its
		// assignment reports — not a half-updated scan artifact.
		check, err := Evaluate(p, res.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if check.Makespan != res.Makespan || check.EnergyNJ != res.EnergyNJ || check.Feasible != res.Feasible {
			t.Fatalf("polls=%d: partial best (%d %v %v) inconsistent with its assignment (%d %v %v)",
				polls, res.Makespan, res.EnergyNJ, res.Feasible,
				check.Makespan, check.EnergyNJ, check.Feasible)
		}

		// A subsequent uncancelled solve must be pristine.
		want, err := Heuristic(p)
		if err != nil {
			t.Fatal(err)
		}
		again, err := HeuristicCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want.Makespan != again.Makespan || want.EnergyNJ != again.EnergyNJ {
			t.Fatalf("polls=%d: solve after a cancelled one diverged: (%d %v) vs (%d %v)",
				polls, want.Makespan, want.EnergyNJ, again.Makespan, again.EnergyNJ)
		}
	}
	// Nothing the solver started may outlive it; allow the runtime a moment
	// to retire goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before, %d after cancelled scans", before, g)
	}
}

func TestHAPCtxUncancelledMatchesHAP(t *testing.T) {
	p := cancelProblem(8, 3)
	e1, r1, err := HAP(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, r2, err := HAPCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 || r1.Makespan != r2.Makespan || r1.EnergyNJ != r2.EnergyNJ {
		t.Fatalf("HAPCtx(Background) diverged from HAP: (%v %v) vs (%v %v)", e1, r1, e2, r2)
	}
}
