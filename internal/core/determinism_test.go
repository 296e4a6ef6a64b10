package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nasaic/internal/evalcache"
	"nasaic/internal/workload"
)

// outcomeFingerprint renders every search-outcome field of a Result at full
// float precision. Evaluation-cost telemetry (HWEvals, cache hits, dedups)
// is deliberately excluded: it legitimately differs across cache modes while
// the search outcome must not.
func outcomeFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trainings=%d pruned=%d\n", res.Trainings, res.PrunedEpisodes)
	for _, h := range res.History {
		fmt.Fprintf(&b, "ep%d r=%.17g p=%.17g pruned=%v feasible=%v\n",
			h.Episode, h.Reward, h.BestPenalty, h.Pruned, h.Feasible)
	}
	for _, s := range res.Explored {
		fmt.Fprintf(&b, "sol ep%d %s w=%.17g L=%d E=%.17g A=%.17g\n",
			s.Episode, s.Design, s.Weighted, s.Latency, s.EnergyNJ, s.AreaUM2)
	}
	if res.Best != nil {
		fmt.Fprintf(&b, "best %s w=%.17g\n", res.Best.Design, res.Best.Weighted)
	}
	return b.String()
}

func runExplorer(t *testing.T, w workload.Workload, workers int, cache bool, episodes int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Episodes = episodes
	cfg.Seed = 7
	cfg.Workers = workers
	x, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cache {
		x.eval.hwCache = nil // the uncached reference path
	}
	return x.Run()
}

// runEvolution is runExplorer for the EA optimizer on W1 with refine on: a
// small population, so the exploit phase's sweeps carry most of the batches.
func runEvolution(t *testing.T, workers int, cache bool) *Result {
	t.Helper()
	cfg := fastConfig(5)
	cfg.Workers = workers
	x, err := New(workload.W1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cache {
		x.eval.hwCache = nil
	}
	ec := DefaultEvolutionConfig()
	ec.Population, ec.Generations, ec.Elite = 12, 3, 2
	if testing.Short() {
		ec.Generations = 2
	}
	return evolve(t, x, ec)
}

// Same-seed runs must be bit-identical whatever the worker count and cache
// mode: hardware evaluation is a pure function of its inputs, results are
// written back by candidate index, and the RNG is only ever advanced from
// the single episode-loop goroutine. Run under -race this also exercises
// the batch fan-out + sharded cache for data races.
func TestRunDeterministicAcrossWorkersAndCache(t *testing.T) {
	episodes := 20
	if testing.Short() {
		episodes = 8
	}
	ref := outcomeFingerprint(runExplorer(t, workload.W3(), 1, true, episodes))
	if ref == "" {
		t.Fatal("empty reference fingerprint")
	}
	cases := []struct {
		name    string
		workers int
		cache   bool
	}{
		{"workers=4 cache=on", 4, true},
		{"workers=8 cache=on", 8, true},
		{"workers=1 cache=off", 1, false},
		{"workers=4 cache=off", 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := outcomeFingerprint(runExplorer(t, workload.W3(), tc.workers, tc.cache, episodes))
			if got != ref {
				t.Errorf("result diverged from workers=1 cache=on reference:\n--- ref ---\n%s--- got ---\n%s", ref, got)
			}
		})
	}

	// EA generations and refine sweeps are batches too: each one folds in
	// candidate order, so the outcome cannot depend on the worker count.
	eaRef := runEvolution(t, 1, true)
	if eaRef.Best == nil || len(eaRef.Explored) <= len(eaRef.History) {
		t.Fatal("EA reference found too little to compare")
	}
	for _, tc := range []struct {
		name    string
		workers int
		cache   bool
	}{{"workers=2 cache=on", 2, true}, {"workers=4 cache=on", 4, true}, {"workers=4 cache=off", 4, false}} {
		t.Run("EA "+tc.name, func(t *testing.T) {
			if got, want := outcomeFingerprint(runEvolution(t, tc.workers, tc.cache)), outcomeFingerprint(eaRef); got != want {
				t.Errorf("EA result diverged from workers=1 cache=on reference:\n--- ref ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// The cache must measurably cut evaluation work without changing anything
// the search reports: same outcome, strictly fewer HAP computations, and a
// non-trivial hit rate once the controller starts resampling known points.
// W1 is the evaluation-heavy workload (the U-Net cost tables dominate), so
// the logged wall-clock delta is the cache's real win; the assertions stay
// on the evaluation counters, which are stable whatever the machine load.
func TestHWCacheReducesWork(t *testing.T) {
	episodes := 30
	if testing.Short() {
		episodes = 12
	}
	w := workload.W1()
	t0 := time.Now()
	off := runExplorer(t, w, 4, false, episodes)
	dOff := time.Since(t0)
	t0 = time.Now()
	on := runExplorer(t, w, 4, true, episodes)
	dOn := time.Since(t0)

	if a, b := outcomeFingerprint(on), outcomeFingerprint(off); a != b {
		t.Errorf("cache changed the search outcome:\n--- on ---\n%s--- off ---\n%s", a, b)
	}
	if off.HWCacheHits != 0 {
		t.Errorf("cache-off run reported %d cache hits", off.HWCacheHits)
	}
	if on.HWCacheHits == 0 {
		t.Error("cache-on run never hit the cache")
	}
	if on.HWEvals >= off.HWEvals {
		t.Errorf("cache did not reduce computations: on=%d off=%d", on.HWEvals, off.HWEvals)
	}
	if on.HWRequests != off.HWRequests {
		t.Errorf("request counts diverged: on=%d off=%d (caching must not change what is asked)",
			on.HWRequests, off.HWRequests)
	}
	t.Logf("episodes=%d: hw evals %d -> %d (%.1f%% cache hits, %d in-batch dedups), wall %v -> %v",
		episodes, off.HWEvals, on.HWEvals, on.HWCacheHitPct(), on.HWDeduped, dOff, dOn)
}

// searchOutcome is outcomeFingerprint without its counter line. Trainings
// is evaluation-cost telemetry: with a shared accuracy memo a warm run
// legitimately performs zero predictor computations, so comparisons across
// shared runs drop it and keep every search-outcome field.
func searchOutcome(res *Result) string {
	fp := outcomeFingerprint(res)
	return fp[strings.Index(fp, "\n")+1:]
}

// Sharing the layer-cost and accuracy memos of one bundle across evaluators
// must leave outcomes bit-identical — both memoize pure functions — while
// the warm evaluator reports a (near-)perfect hit rate.
func TestSharedMemosWarmStartWithoutChangingResults(t *testing.T) {
	episodes := 10
	if testing.Short() {
		episodes = 5
	}
	memos := NewMemos(DefaultConfig().Cost)
	run := func(shared bool) *Result {
		cfg := DefaultConfig()
		cfg.Episodes = episodes
		cfg.Seed = 13
		if shared {
			// A fresh hardware tier per run, so the warm run's requests
			// reach the layer-cost memo instead of being answered whole
			// (TestSharedMemosAcrossExplorers covers that tier).
			cfg.Memos = &Memos{cost: memos.cost, acc: memos.acc, layer: memos.layer,
				hw: evalcache.New[HWMetrics]()}
		}
		x, err := New(workload.W3(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run()
	}
	refRes := run(false)
	ref := searchOutcome(refRes)
	cold := run(true)
	if got := searchOutcome(cold); got != ref {
		t.Errorf("shared memos changed the outcome (cold):\n--- ref ---\n%s--- got ---\n%s", ref, got)
	}
	warm := run(true)
	if got := searchOutcome(warm); got != ref {
		t.Errorf("shared memos changed the outcome (warm):\n--- ref ---\n%s--- got ---\n%s", ref, got)
	}
	if cold.PrunedEpisodes != refRes.PrunedEpisodes || warm.PrunedEpisodes != refRes.PrunedEpisodes {
		t.Errorf("pruning diverged: ref %d, cold %d, warm %d", refRes.PrunedEpisodes, cold.PrunedEpisodes, warm.PrunedEpisodes)
	}
	if cold.LayerCostRequests == 0 || warm.LayerCostRequests == 0 {
		t.Fatal("layer-cost memo saw no traffic")
	}
	coldPct := cold.LayerCostHitPct()
	warmPct := warm.LayerCostHitPct()
	if warmPct <= coldPct {
		t.Errorf("warm run hit rate %.1f%% not above cold run %.1f%%", warmPct, coldPct)
	}
	if warmPct < 99.9 {
		t.Errorf("warm run should serve ~all queries from the shared memo, got %.1f%%", warmPct)
	}
	if warm.Trainings != 0 {
		t.Errorf("warm run retrained %d architectures despite the shared accuracy memo", warm.Trainings)
	}
}

// The in-batch dedup must collapse identical pending candidates even with
// the cache disabled: force a degenerate one-option hardware space so every
// sample in a batch is the same design.
func TestBatchDedupCollapsesIdenticalCandidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 3
	cfg.HWSteps = 6
	cfg.Seed = 3
	cfg.Refine = false
	cfg.HW.Styles = cfg.HW.Styles[:1]
	cfg.HW.PEOptions = []int{512}
	cfg.HW.BWOptions = []int{16}
	x, err := New(workload.W3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.eval.hwCache = nil
	res := x.Run()
	// Every episode samples 1+HWSteps candidates of the single possible
	// design: all but the first per batch must be deduped.
	wantDedup := cfg.Episodes * cfg.HWSteps
	if res.HWDeduped != wantDedup {
		t.Errorf("HWDeduped = %d, want %d", res.HWDeduped, wantDedup)
	}
	for _, h := range res.History {
		if h.HWDeduped != cfg.HWSteps {
			t.Errorf("episode %d deduped %d, want %d", h.Episode, h.HWDeduped, cfg.HWSteps)
		}
	}
	if res.HWEvals != cfg.Episodes {
		t.Errorf("HWEvals = %d, want %d (one per episode after dedup)", res.HWEvals, cfg.Episodes)
	}
}

// The work counters must be as reproducible as the outcome: same-seed
// searches, each on a fresh memo bundle, report equal EvalStats at Workers 1,
// 2 and 4, and across two Workers=4 runs. This pins layer_cost_hits, which
// two workers missing on one cold cost-memo key used to skew by one from run
// to run, and the hardware counters, which concurrent identical requests
// keep exact by meeting in the cache's singleflight.
func TestEvalStatsDeterministicAcrossRuns(t *testing.T) {
	episodes := 20
	if testing.Short() {
		episodes = 8
	}
	rl := func(workers int) EvalStats {
		cfg := DefaultConfig()
		cfg.Episodes = episodes
		cfg.Seed = 1
		cfg.Workers = workers
		x, err := New(workload.W3(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run().EvalStats
	}
	ea := func(workers int) EvalStats { return runEvolution(t, workers, true).EvalStats }
	for name, run := range map[string]func(int) EvalStats{"RL": rl, "EA": ea} {
		ref := run(1)
		for _, workers := range []int{2, 4, 4} {
			if got := run(workers); got != ref {
				t.Errorf("%s: Workers=%d reported different work counters than Workers=1:\n%+v\n%+v", name, workers, got, ref)
			}
		}
	}
}
