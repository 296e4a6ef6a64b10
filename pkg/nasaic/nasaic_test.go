package nasaic

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nasaic/internal/core"
	"nasaic/internal/workload"
)

// quickOpts is a fast deterministic run used across the tests.
func quickOpts(extra ...Option) []Option {
	return append([]Option{
		WithWorkload("W3"),
		WithEpisodes(25),
		WithSeed(1),
		WithWorkers(4),
	}, extra...)
}

// fingerprint renders every result field that must be bit-stable.
func fingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ep=%d pruned=%d\n", r.Workload, r.Episodes, r.Stats.PrunedEpisodes)
	for _, s := range r.Explored {
		fmt.Fprintf(&b, "sol ep%d %s w=%.17g L=%d E=%.17g A=%.17g\n",
			s.Episode, s.Design, s.WeightedAccuracy, s.LatencyCycles, s.EnergyNJ, s.AreaUM2)
	}
	if r.Best != nil {
		fmt.Fprintf(&b, "best %s w=%.17g\n", r.Best.Design, r.Best.WeightedAccuracy)
	}
	return b.String()
}

// TestRunMatchesCore: the facade is a faithful view over the engine — same
// seed, bit-identical solutions and counters.
func TestRunMatchesCore(t *testing.T) {
	res, err := Run(context.Background(), quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Episodes = 25
	cfg.Seed = 1
	cfg.Workers = 4
	x, err := core.New(workload.W3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := x.Run()

	if res.Best == nil || want.Best == nil {
		t.Fatalf("best missing: facade=%v core=%v", res.Best, want.Best)
	}
	if res.Best.WeightedAccuracy != want.Best.Weighted ||
		res.Best.LatencyCycles != want.Best.Latency ||
		res.Best.EnergyNJ != want.Best.EnergyNJ ||
		res.Best.AreaUM2 != want.Best.AreaUM2 ||
		res.Best.Design.String() != want.Best.Design.String() {
		t.Fatalf("facade best diverged from core:\n%+v\nvs\n%+v", res.Best, want.Best)
	}
	if len(res.Explored) != len(want.Explored) {
		t.Fatalf("explored count %d vs %d", len(res.Explored), len(want.Explored))
	}
	if res.Stats.HWEvals != want.HWEvals || res.Stats.Trainings != want.Trainings {
		t.Fatalf("stats diverged: %+v vs HWEvals=%d Trainings=%d", res.Stats, want.HWEvals, want.Trainings)
	}
}

// TestRunDeterministic: two identical runs are bit-identical, including with
// events subscribed (the hook must not perturb the search).
func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	b, err := Run(context.Background(), quickOpts(WithEventHandler(func(e Event) { events = append(events, e) }))...)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatalf("subscribed run diverged:\n%s\nvs\n%s", fingerprint(a), fingerprint(b))
	}
	if len(events) != 25 {
		t.Fatalf("got %d events, want 25", len(events))
	}
	for i, ev := range events {
		if ev.Episode != i {
			t.Fatalf("event %d carries episode %d", i, ev.Episode)
		}
	}
}

// TestRunEventChannel: channel delivery sees the same stream.
func TestRunEventChannel(t *testing.T) {
	ch := make(chan Event, 64)
	res, err := Run(context.Background(), quickOpts(WithEventChannel(ch))...)
	if err != nil {
		t.Fatal(err)
	}
	close(ch)
	n := 0
	var last Event
	for e := range ch {
		last = e
		n++
	}
	if n != 25 {
		t.Fatalf("channel got %d events, want 25", n)
	}
	if res.Best != nil && last.Best == nil {
		t.Fatal("final event missing best-so-far")
	}
}

// TestRunCancelled: cancellation mid-run returns the partial result and the
// context error, promptly and leak-free.
func TestRunCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := []Option{
		WithWorkload("W3"), WithEpisodes(5000), WithSeed(1), WithWorkers(4),
		WithEventHandler(func(e Event) {
			if e.Episode == 3 {
				cancel()
			}
		}),
	}
	start := time.Now()
	res, err := Run(ctx, opts...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("cancelled Run took %v", el)
	}
	if res == nil || res.Episodes != 4 {
		t.Fatalf("partial result episodes = %v, want 4", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d vs base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunOptionErrors: invalid options surface as errors, not panics.
func TestRunOptionErrors(t *testing.T) {
	if _, err := Run(context.Background(), WithWorkload("W9")); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(context.Background(), WithOptimizer("annealing")); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	if _, err := Run(context.Background(), WithEventHandler(nil)); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := Run(context.Background(), WithEpisodes(0)); err == nil {
		t.Fatal("zero episodes accepted")
	}
}

// TestSharedMemosWarmStart: consecutive runs through one bundle are
// bit-identical to cold runs and reuse each other's evaluations.
func TestSharedMemosWarmStart(t *testing.T) {
	cold, err := Run(context.Background(), quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharedMemos()
	warm1, err := Run(context.Background(), quickOpts(WithSharedMemos(m))...)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Run(context.Background(), quickOpts(WithSharedMemos(m))...)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(cold) != fingerprint(warm1) || fingerprint(warm1) != fingerprint(warm2) {
		t.Fatal("shared-memo runs diverged from cold run")
	}
	if warm2.Stats.HWCacheHits <= warm1.Stats.HWCacheHits {
		t.Fatalf("second run not warm-started: hits %d vs %d",
			warm2.Stats.HWCacheHits, warm1.Stats.HWCacheHits)
	}
	if warm2.Stats.Trainings != 0 {
		t.Fatalf("second run retrained %d architectures despite shared accuracy memo", warm2.Stats.Trainings)
	}
}

// TestEvolutionOptimizer drives the EA path through the facade.
func TestEvolutionOptimizer(t *testing.T) {
	res, err := Run(context.Background(), quickOpts(WithOptimizer(OptimizerEA))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("EA run found no feasible solution")
	}
}

// TestResultJSONRoundTrip: the result types are stable JSON.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Run(context.Background(), quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if fingerprint(res) != fingerprint(&back) {
		t.Fatalf("JSON round-trip changed the result:\n%s\nvs\n%s", fingerprint(res), fingerprint(&back))
	}
}

// TestRenderSchedule smoke-tests the Gantt view of the best solution.
func TestRenderSchedule(t *testing.T) {
	res, err := Run(context.Background(), quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Skip("no feasible solution in quick run")
	}
	var b strings.Builder
	if err := res.RenderSchedule(&b, 80); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("empty schedule rendering")
	}
}

// TestWorkloads lists the three paper workloads.
func TestWorkloads(t *testing.T) {
	ws := Workloads()
	if len(ws) != 3 {
		t.Fatalf("got %d workloads, want 3", len(ws))
	}
	for i, name := range []string{"W1", "W2", "W3"} {
		if ws[i].Name != name {
			t.Fatalf("workload %d is %s, want %s", i, ws[i].Name, name)
		}
		if len(ws[i].Tasks) != 2 {
			t.Fatalf("%s lists %d tasks, want 2", name, len(ws[i].Tasks))
		}
	}
}
