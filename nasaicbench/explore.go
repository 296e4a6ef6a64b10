package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"nasaic/internal/core"
	"nasaic/internal/workload"
)

// exploration is one explore-* workload: a paper workload searched by one
// optimizer at a fixed budget with the paper's defaults (φ=10, refine on,
// hardware cache and layer memo on) and cold caches — every exploration
// builds a fresh explorer.
type exploration struct {
	workload func() workload.Workload
	ea       bool // the evolutionary optimizer instead of the RL controller
	episodes int
}

var (
	// 150 episodes keep one exploration near two seconds on a 2-core host, so
	// a run medians several of them.
	exploreRLW3 = exploration{workload: workload.W3, episodes: 150}
	// pkg/nasaic's EA budget rule turns 100 episodes at φ=10 into 22
	// generations of 50 individuals.
	exploreEAW1 = exploration{workload: workload.W1, ea: true, episodes: 100}
)

// setupSamples is the number of explorer constructions setup_s is the median
// of: those of the window's explorations, topped up after the window.
const setupSamples = 40

func (e exploration) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Episodes = e.episodes
	cfg.Seed = seed
	return cfg
}

// evolution applies pkg/nasaic's EA budget rule: Population × Generations ≈
// Episodes × (1+φ).
func evolution(cfg core.Config) core.EvolutionConfig {
	ec := core.DefaultEvolutionConfig()
	ec.Generations = cfg.Episodes * (1 + cfg.HWSteps) / ec.Population
	if ec.Generations < 1 {
		ec.Generations = 1
	}
	return ec
}

// exploreRun is one untraced exploration, timed from outside.
type exploreRun struct {
	setup      time.Duration // core.New: evaluator, penalty-bound sampling, controller init
	explore    time.Duration // search plus refine
	firstEvent time.Duration // search start to the first OnEpisode event
	refine     time.Duration // last OnEpisode event to the return of the search
	alloc      uint64        // bytes allocated by construction and search
	gcCycles   uint32
	gcPause    time.Duration
	res        *core.Result
	loopBest   *core.Solution // the last OnEpisode event's Best: the pre-refine best
}

func (e exploration) run(ctx context.Context, seed int64) (exploreRun, error) {
	w, cfg := e.workload(), e.config(seed)
	var r exploreRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	x, err := core.New(w, cfg)
	if err != nil {
		return r, fmt.Errorf("build explorer: %w", err)
	}
	var first, last time.Time
	x.OnEpisode = func(ev core.EpisodeEvent) {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
		r.loopBest = ev.Best
	}
	t1 := time.Now()
	if e.ea {
		r.res, err = x.RunEvolutionContext(ctx, evolution(cfg))
	} else {
		r.res, err = x.RunContext(ctx)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, fmt.Errorf("explore seed %d: %w", seed, err)
	}
	if first.IsZero() {
		return r, fmt.Errorf("explore seed %d: no episode events", seed)
	}
	r.setup, r.explore = t1.Sub(t0), t2.Sub(t1)
	r.firstEvent, r.refine = first.Sub(t1), t2.Sub(last)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return r, nil
}

// meetsSpecs checks the paper's headline guarantee: the best solution meets
// the workload's ⟨LS, ES, AS⟩ specs.
func meetsSpecs(sol *core.Solution, sp workload.Specs) error {
	switch {
	case sol == nil:
		return errors.New("no feasible solution")
	case !sol.Feasible || sol.Latency > sp.LatencyCycles || sol.EnergyNJ > sp.EnergyNJ || sol.AreaUM2 > sp.AreaUM2:
		return fmt.Errorf("best %s misses specs %s", sol, sp)
	}
	return nil
}

// solutionKey renders every field that identifies a solution, floats as bit
// patterns, so equal keys mean bit-identical solutions.
func solutionKey(sol *core.Solution) string {
	if sol == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ep%d %v %s L%d E%x A%x W%x", sol.Episode, sol.ArchChoices, sol.Design.Fingerprint(),
		sol.Latency, math.Float64bits(sol.EnergyNJ), math.Float64bits(sol.AreaUM2), math.Float64bits(sol.Weighted))
	for _, a := range sol.Accuracies {
		fmt.Fprintf(&b, " a%x", math.Float64bits(a))
	}
	return b.String()
}

// bench runs the workload: with --trace 0 back-to-back untraced explorations
// for the window, with --trace 1 pairs of an untraced and a traced
// exploration of the same seed.
func (e exploration) bench(env *runEnv) (*outcome, error) {
	if env.trace {
		return e.benchTraced(env)
	}
	o := newOutcome()
	specs := e.workload().Specs
	var first exploreRun
	var setup, explore, alloc []float64
	stopProfile, err := env.profile()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < env.window; i++ {
		r, err := e.run(env.ctx, subSeed(env.seed, i))
		o.attempted++
		if err != nil {
			o.fail("%v", err)
			continue
		}
		if err := meetsSpecs(r.res.Best, specs); err != nil {
			o.fail("seed %d: %v", subSeed(env.seed, i), err)
			continue
		}
		if i == 0 {
			first = r
		}
		setup = append(setup, r.setup.Seconds())
		explore = append(explore, r.explore.Seconds())
		alloc = append(alloc, float64(r.alloc)/1e6)
	}
	elapsed := time.Since(start)
	if err := stopProfile(); err != nil {
		return nil, err
	}

	// The first exploration again, outside the window: same seed, same best.
	o.attempted++
	again, err := e.run(env.ctx, subSeed(env.seed, 0))
	switch {
	case err != nil:
		o.fail("repeat: %v", err)
	case first.res == nil:
		o.fail("repeat: first exploration failed")
	case solutionKey(again.res.Best) != solutionKey(first.res.Best) || solutionKey(again.loopBest) != solutionKey(first.loopBest):
		o.fail("repeat of seed %d is not bit-identical:\n  %s\n  %s", subSeed(env.seed, 0),
			solutionKey(first.res.Best), solutionKey(again.res.Best))
	}
	// More constructions after the window, so setup_s is a median of many.
	for i := len(setup); i < setupSamples; i++ {
		t := time.Now()
		if _, err := core.New(e.workload(), e.config(subSeed(env.seed, i))); err != nil {
			return nil, fmt.Errorf("build explorer: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	fmt.Printf("%d explorations in %.3f s\n", len(explore), elapsed.Seconds())
	o.metrics["setup_s"] = median(setup)
	o.metrics["explore_s"] = median(explore)
	o.metrics["jobs_per_s"] = float64(len(explore)) / elapsed.Seconds()
	o.metrics["alloc_mb"] = median(alloc)
	return o, nil
}

func (e exploration) benchTraced(env *runEnv) (*outcome, error) {
	o := newOutcome()
	w := e.workload()
	var pairs []map[string]float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < env.window; i++ {
		seed := subSeed(env.seed, i)
		o.attempted++
		u, err := e.run(env.ctx, seed)
		if err != nil {
			o.fail("%v", err)
			continue
		}
		if err := meetsSpecs(u.res.Best, w.Specs); err != nil {
			o.fail("seed %d: %v", seed, err)
		}
		lt, err := newLoopTrace(w, e.config(seed))
		if err != nil {
			return nil, err
		}
		if e.ea {
			err = lt.runEA(env.ctx, evolution(lt.cfg))
		} else {
			err = lt.runRL(env.ctx)
		}
		if err != nil {
			o.fail("traced seed %d: %v", seed, err)
			continue
		}
		if got, want := solutionKey(lt.best), solutionKey(u.loopBest); got != want {
			o.fail("traced seed %d ends on a different pre-refine best:\n  traced   %s\n  untraced %s", seed, got, want)
		}
		rep, err := lt.replay(env.ctx)
		if err != nil {
			return nil, err
		}
		d := lt.delta()
		if rep.mismatches > 0 {
			o.fail("seed %d: %d replayed HAP solves differ from the evaluator's metrics", seed, rep.mismatches)
		}
		if rep.layerRequests != d.LayerCostRequests || rep.layerHits != d.LayerCostHits {
			o.fail("seed %d: replayed cost tables made %d/%d layer requests/hits, the evaluator %d/%d",
				seed, rep.layerRequests, rep.layerHits, d.LayerCostRequests, d.LayerCostHits)
		}
		pairs = append(pairs, layerMetrics(u, lt, rep))
	}
	for k, v := range medians(pairs) {
		o.metrics[k] = v
	}
	fmt.Printf("%d traced explorations in %.3f s\n", len(pairs), time.Since(start).Seconds())
	return o, nil
}

// layerMetrics reports one untraced/traced pair.
func layerMetrics(u exploreRun, lt *loopTrace, rep replayed) map[string]float64 {
	d := lt.delta()
	var covered time.Duration
	for _, t := range lt.spans {
		covered += t
	}
	sigCalls := 0
	for _, nets := range lt.sigNets {
		sigCalls += len(nets)
	}
	untracedLoop := u.explore - u.refine
	return map[string]float64{
		"rl.sample_ms":            ms(lt.spans[spanSample]),
		"rl.accumulate_ms":        ms(lt.spans[spanAccumulate]),
		"rl.update_ms":            ms(lt.spans[spanUpdate]),
		"rl.rollouts":             float64(lt.rollouts),
		"core.hw_eval_ms":         ms(lt.spans[spanHWEval]),
		"core.hw_requests":        float64(d.HWRequests),
		"core.hw_evals":           float64(d.HWEvals),
		"core.hw_hit_us":          ratio(us(lt.hitTime), float64(lt.hits)),
		"core.hw_miss_us":         ratio(us(lt.missTime), float64(len(lt.misses))),
		"core.hw_dedup":           float64(lt.dedup),
		"evalcache.hit_pct":       pct(float64(d.HWCacheHits), float64(d.HWRequests)),
		"dnn.signature_us":        ratio(us(rep.signature), float64(sigCalls)),
		"dnn.signature_calls":     float64(sigCalls),
		"dnn.decode_ms":           ms(lt.spans[spanDecode]),
		"accel.decode_ms":         ms(lt.spans[spanDesign]),
		"maestro.cost_table_ms":   ms(rep.table),
		"maestro.layer_requests":  float64(d.LayerCostRequests),
		"maestro.layer_hit_pct":   pct(float64(d.LayerCostHits), float64(d.LayerCostRequests)),
		"sched.hap_ms":            ms(rep.hap),
		"sched.hap_solves":        float64(len(lt.misses)),
		"core.accuracy_ms":        ms(lt.spans[spanAccuracy]),
		"predictor.trainings":     float64(d.Trainings),
		"core.penalty_ms":         ms(lt.spans[spanPenalty]),
		"ea.breed_ms":             ms(lt.spans[spanBreed]),
		"core.refine_ms":          ms(u.refine),
		"nasaic.first_event_ms":   ms(u.firstEvent),
		"core.refine_hw_requests": float64(u.res.HWRequests - d.HWRequests),
		"runtime.gc_cycles":       float64(u.gcCycles),
		"runtime.gc_pause_ms":     ms(u.gcPause),
		"trace.overhead_pct":      pct(float64(lt.wall-untracedLoop), float64(untracedLoop)),
		"trace.unaccounted_pct":   pct(float64(lt.wall-covered), float64(lt.wall)),
	}
}
