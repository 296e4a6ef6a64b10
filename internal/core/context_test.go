package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nasaic/internal/workload"
)

func ctxTestConfig(episodes int) Config {
	cfg := DefaultConfig()
	cfg.Episodes = episodes
	cfg.Workers = 4
	return cfg
}

// waitGoroutines polls until the goroutine count drops back to within slack
// of base (worker goroutines park asynchronously after wg.Wait returns).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextPreCancelled: an already-cancelled context returns
// immediately with the context error, an empty partial result, and no
// goroutines left behind.
func TestRunContextPreCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	x, err := New(workload.W3(), ctxTestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := x.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("pre-cancelled RunContext took %v", el)
	}
	if res == nil {
		t.Fatal("RunContext returned nil partial result")
	}
	if len(res.History) != 0 {
		t.Fatalf("pre-cancelled run completed %d episodes, want 0", len(res.History))
	}
	waitGoroutines(t, base)
}

// TestRunContextCancelMidRun cancels from an episode callback and expects a
// prompt partial return with the completed episode prefix intact and no
// goroutine leaks.
func TestRunContextCancelMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	x, err := New(workload.W3(), ctxTestConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 5
	x.OnEpisode = func(ev EpisodeEvent) {
		if ev.Stats.Episode == stopAfter {
			cancel()
		}
	}
	start := time.Now()
	res, err := x.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("cancelled RunContext took %v", el)
	}
	if got := len(res.History); got != stopAfter+1 {
		t.Fatalf("completed %d episodes, want %d", got, stopAfter+1)
	}
	waitGoroutines(t, base)
}

// TestRunContextDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	x, err := New(workload.W3(), ctxTestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err = x.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextMatchesRun: an uncancelled RunContext is bit-identical to
// Run for the same seed.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := ctxTestConfig(30)
	runA := func() *Result {
		x, err := New(workload.W3(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runB := func() *Result {
		x, err := New(workload.W3(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run()
	}
	a, b := runA(), runB()
	if fa, fb := outcomeFingerprint(a), outcomeFingerprint(b); fa != fb {
		t.Fatalf("RunContext diverged from Run:\n%s\nvs\n%s", fa, fb)
	}
}

// TestRunEvolutionContextCancelled covers the EA path's cancellation. A
// cancel from OnEpisode lands between generations, when no batch worker is
// running: the next generation must not start, so no hardware request is
// counted after the cancel and nothing more is recorded.
func TestRunEvolutionContextCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	x, err := New(workload.W3(), ctxTestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	ec := DefaultEvolutionConfig()
	ec.Generations = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel EpisodeEvent
	var requests int
	x.OnEpisode = func(ev EpisodeEvent) {
		if ev.Stats.Episode == 2 {
			atCancel, requests = ev, x.Evaluator().EvalStats().HWRequests
			cancel()
		}
	}
	res, err := x.RunEvolutionContext(ctx, ec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.History) != 2 {
		t.Fatalf("completed %d generations, want 2", len(res.History))
	}
	if res.HWRequests != requests {
		t.Fatalf("%d hardware requests counted after the cancel", res.HWRequests-requests)
	}
	if res.Best != atCancel.Best || len(res.Explored) != atCancel.Explored {
		t.Fatalf("solutions recorded after the cancel: %d explored (was %d)", len(res.Explored), atCancel.Explored)
	}
	waitGoroutines(t, base)

	// A pre-cancelled context must abort during the initial population, not
	// after evaluating all of it.
	x2, err := New(workload.W3(), ctxTestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	start := time.Now()
	res, err = x2.RunEvolutionContext(ctx2, ec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled EA: err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("pre-cancelled EA took %v", el)
	}
	if res == nil || len(res.History) != 0 || len(res.Explored) != 0 || res.HWRequests != 0 {
		t.Fatalf("pre-cancelled EA recorded work: %+v", res)
	}
}

// TestCancelDuringRefine cancels from the last episode's (RL) or
// generation's (EA) OnEpisode, so the context is done just as the exploit
// phase begins. Both optimizers must return ctx's error with the exploration
// outcome intact and run no refine step after the cancel: no hardware
// evaluation is requested and no refined solution is recorded.
func TestCancelDuringRefine(t *testing.T) {
	cases := []struct {
		name string
		w    workload.Workload
		cfg  Config
		run  func(*Explorer, context.Context) (*Result, error)
		last int
	}{
		{"RL", workload.W3(), fastConfig(3),
			func(x *Explorer, ctx context.Context) (*Result, error) { return x.RunContext(ctx) }, 59},
		{"EA", workload.W1(), fastConfig(3),
			func(x *Explorer, ctx context.Context) (*Result, error) {
				ec := DefaultEvolutionConfig()
				ec.Population, ec.Generations, ec.Elite = 10, 4, 2
				return x.RunEvolutionContext(ctx, ec)
			}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.cfg.Refine {
				t.Fatal("test config must enable refine")
			}
			x, err := New(tc.w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var atCancel EpisodeEvent
			var requests int
			x.OnEpisode = func(ev EpisodeEvent) {
				if ev.Stats.Episode == tc.last {
					atCancel = ev
					requests = x.Evaluator().EvalStats().HWRequests
					cancel()
				}
			}
			res, err := tc.run(x, ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if atCancel.Best == nil {
				t.Fatal("no feasible solution before the cancel: refine would not run")
			}
			if res.HWRequests != requests {
				t.Fatalf("%d hardware evaluations ran after the cancel", res.HWRequests-requests)
			}
			if res.Best != atCancel.Best || len(res.Explored) != atCancel.Explored {
				t.Fatalf("refine recorded solutions after the cancel: %d explored (was %d)",
					len(res.Explored), atCancel.Explored)
			}
		})
	}
}

// tripCtx cancels itself at its n-th Err call once armed, which reaches into
// a search phase no callback runs in: the context is checked by every
// hardware evaluation and inside the HAP solver. onTrip runs right after
// the cancel.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	n      atomic.Int64 // Err calls left; <=0 while disarmed
	onTrip func()
}

func (c *tripCtx) Err() error {
	if c.n.Load() > 0 && c.n.Add(-1) == 0 {
		c.cancel()
		c.onTrip()
	}
	return c.Context.Err()
}

// TestCancelMidRefine cancels both optimizers in the middle of the exploit
// phase, a couple of thousand context checks into it, with and without the
// batch fan-out. The search must return ctx's error with the explored
// solutions intact and leave no goroutine behind, and no hardware request
// may begin after the cancel: at most the Workers−1 evaluations other
// workers had already admitted are counted after it, none at Workers=1.
func TestCancelMidRefine(t *testing.T) {
	for _, optimizer := range []string{"RL", "EA"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s workers=%d", optimizer, workers), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := fastConfig(3)
				cfg.Workers = workers
				w, last := workload.W3(), 59
				if optimizer == "EA" {
					w, last = workload.W1(), 4
				}
				x, err := New(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				inner, cancel := context.WithCancel(context.Background())
				defer cancel()
				var requests int
				ctx := &tripCtx{Context: inner, cancel: cancel}
				ctx.onTrip = func() { requests = x.Evaluator().EvalStats().HWRequests }
				var atEnd EpisodeEvent
				x.OnEpisode = func(ev EpisodeEvent) {
					if ev.Stats.Episode == last {
						atEnd = ev
						ctx.n.Store(2000)
					}
				}
				var res *Result
				if optimizer == "RL" {
					res, err = x.RunContext(ctx)
				} else {
					ec := DefaultEvolutionConfig()
					ec.Population, ec.Generations, ec.Elite = 10, 4, 2
					res, err = x.RunEvolutionContext(ctx, ec)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if atEnd.Best == nil || res.Best == nil {
					t.Fatal("no feasible solution before refine")
				}
				if res.Best.Weighted < atEnd.Best.Weighted || len(res.Explored) < atEnd.Explored {
					t.Fatalf("the cancel lost explored solutions: %d (was %d)", len(res.Explored), atEnd.Explored)
				}
				if after := res.HWRequests - requests; after < 0 || after > workers-1 {
					t.Fatalf("%d hardware requests counted after the cancel, want at most %d", after, workers-1)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestOnEpisodeEvents verifies the streaming hook: one event per episode, in
// order, with the best-so-far solution monotonically improving.
func TestOnEpisodeEvents(t *testing.T) {
	x, err := New(workload.W3(), ctxTestConfig(25))
	if err != nil {
		t.Fatal(err)
	}
	var events []EpisodeEvent
	x.OnEpisode = func(ev EpisodeEvent) { events = append(events, ev) }
	res, err := x.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 25 {
		t.Fatalf("got %d events, want 25", len(events))
	}
	lastBest := 0.0
	for i, ev := range events {
		if ev.Stats.Episode != i {
			t.Fatalf("event %d has episode %d", i, ev.Stats.Episode)
		}
		if ev.Best != nil {
			if ev.Best.Weighted < lastBest {
				t.Fatalf("best-so-far regressed at episode %d: %v < %v", i, ev.Best.Weighted, lastBest)
			}
			lastBest = ev.Best.Weighted
		}
	}
	if res.Best != nil && len(events) > 0 {
		last := events[len(events)-1]
		if last.Best == nil {
			t.Fatal("final event missing best-so-far despite feasible result")
		}
	}
}

// TestSharedMemosAcrossExplorers: two explorers sharing one bundle must
// produce bit-identical results to private caches, with the second run
// served largely from the first run's entries (and, the accuracy memo
// being shared too, retraining nothing).
func TestSharedMemosAcrossExplorers(t *testing.T) {
	cfg := ctxTestConfig(15)
	run := func(cfg Config) *Result {
		x, err := New(workload.W3(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run()
	}
	private := run(cfg)

	shared := cfg
	shared.Memos = NewMemos(cfg.Cost)
	first := run(shared)
	second := run(shared)
	if fa, fb := outcomeFingerprint(private), outcomeFingerprint(first); fa != fb {
		t.Fatalf("shared-cache first run diverged from private-cache run")
	}
	if fa, fb := searchOutcome(first), searchOutcome(second); fa != fb {
		t.Fatalf("second shared-cache run diverged")
	}
	if second.Trainings != 0 {
		t.Fatalf("second run retrained %d architectures despite the shared accuracy memo", second.Trainings)
	}
	if second.HWCacheHits <= first.HWCacheHits {
		t.Fatalf("second run not warm-started: hits %d vs %d", second.HWCacheHits, first.HWCacheHits)
	}
}
