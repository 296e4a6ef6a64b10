package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"nasaic/internal/accel"
	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/maestro"
	"nasaic/internal/nn"
	"nasaic/internal/rl"
	"nasaic/internal/sched"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Span names: the layer boundaries the traced loop times. Every call the
// traced loop makes into the program falls inside one of them; the rest of
// the loop is the benchmark's own bookkeeping, reported as
// trace.unaccounted_pct.
const (
	spanSample     = "rl.sample"
	spanAccumulate = "rl.accumulate"
	spanUpdate     = "rl.update"
	spanDecode     = "dnn.decode"
	spanDesign     = "accel.decode"
	spanHWEval     = "core.hw_eval"
	spanPenalty    = "core.penalty"
	spanAccuracy   = "core.accuracy"
	spanBreed      = "ea.breed"
)

// loopTrace drives one exploration's search loop itself, through the public
// calls core.Explorer makes and in the same order, so it ends on the
// untraced run's pre-refine best bit for bit. It times every call, makes the
// hardware evaluations one at a time so the evaluator's counter deltas
// classify each as a cache hit or a computed miss, and keeps the misses for
// replay.
type loopTrace struct {
	w          workload.Workload
	cfg        core.Config
	eval       *core.Evaluator
	specs      []rl.DecisionSpec
	archLen    int
	taskOffset []int
	before     core.EvalStats // evaluator counters when the loop starts

	spans map[string]time.Duration
	wall  time.Duration
	best  *core.Solution

	rollouts, dedup, hits int
	hitTime, missTime     time.Duration
	misses                []hwCall
	// sigNets are the network tuples whose signatures the program computed:
	// one per hardware-cache key and one per accuracy-memo lookup.
	sigNets [][]*dnn.Network
}

// hwCall is one computed hardware evaluation, kept for replay.
type hwCall struct {
	nets []*dnn.Network
	d    accel.Design
	m    core.HWMetrics
}

// newLoopTrace builds the evaluator and the controller's decision list the
// way core.New does.
func newLoopTrace(w workload.Workload, cfg core.Config) (*loopTrace, error) {
	eval, err := core.NewEvaluator(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("build evaluator: %w", err)
	}
	lt := &loopTrace{w: w, cfg: cfg, eval: eval, spans: map[string]time.Duration{}}
	for ti, t := range w.Tasks {
		lt.taskOffset = append(lt.taskOffset, len(lt.specs))
		for _, d := range t.Space.Decisions {
			lt.specs = append(lt.specs, rl.DecisionSpec{Name: fmt.Sprintf("t%d.%s", ti, d.Name), NumOptions: len(d.Options)})
		}
	}
	lt.archLen = len(lt.specs)
	hw := cfg.HW
	for si := 1; si <= hw.NumSubs; si++ {
		lt.specs = append(lt.specs,
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.df", si), NumOptions: len(hw.Styles)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.pe", si), NumOptions: len(hw.PEOptions)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.bw", si), NumOptions: len(hw.BWOptions)},
		)
	}
	lt.before = eval.EvalStats()
	return lt, nil
}

// since adds the time elapsed since t to span.
func (lt *loopTrace) since(span string, t time.Time) { lt.spans[span] += time.Since(t) }

// delta is the evaluator's work during the loop.
func (lt *loopTrace) delta() core.EvalStats {
	a, b := lt.eval.EvalStats(), lt.before
	return core.EvalStats{
		Trainings:         a.Trainings - b.Trainings,
		HWRequests:        a.HWRequests - b.HWRequests,
		HWEvals:           a.HWEvals - b.HWEvals,
		HWCacheHits:       a.HWCacheHits - b.HWCacheHits,
		LayerCostRequests: a.LayerCostRequests - b.LayerCostRequests,
		LayerCostHits:     a.LayerCostHits - b.LayerCostHits,
	}
}

// decodeArch splits the architecture actions per task and decodes each
// task's network.
func (lt *loopTrace) decodeArch(actions []int) ([][]int, []*dnn.Network, error) {
	defer lt.since(spanDecode, time.Now())
	choices := make([][]int, len(lt.w.Tasks))
	nets := make([]*dnn.Network, len(lt.w.Tasks))
	for ti, t := range lt.w.Tasks {
		off := lt.taskOffset[ti]
		choices[ti] = append([]int(nil), actions[off:off+t.Space.NumChoices()]...)
		net, err := t.Space.Decode(choices[ti])
		if err != nil {
			return nil, nil, err
		}
		nets[ti] = net
	}
	return choices, nets, nil
}

// decodeDesign builds the accelerator from the hardware actions.
func (lt *loopTrace) decodeDesign(actions []int) accel.Design {
	defer lt.since(spanDesign, time.Now())
	hw := lt.cfg.HW
	subs := make([]accel.SubAccel, hw.NumSubs)
	for si := range subs {
		off := lt.archLen + 3*si
		subs[si] = accel.SubAccel{DF: hw.Styles[actions[off]], PEs: hw.PEOptions[actions[off+1]], BW: hw.BWOptions[actions[off+2]]}
	}
	return accel.NewDesign(subs...)
}

func (lt *loopTrace) penalty(m core.HWMetrics) float64 {
	defer lt.since(spanPenalty, time.Now())
	return lt.eval.Penalty(m)
}

func (lt *loopTrace) accuracies(nets []*dnn.Network) []float64 {
	defer lt.since(spanAccuracy, time.Now())
	lt.sigNets = append(lt.sigNets, nets)
	return lt.eval.Accuracies(nets)
}

// hwEval makes one hardware evaluation and classifies it from the
// evaluator's counters: a computed miss, a cache hit, or neither — a
// resource-violating design the evaluator answers without cache or cost
// model.
func (lt *loopTrace) hwEval(ctx context.Context, nets []*dnn.Network, d accel.Design) (core.HWMetrics, error) {
	defer lt.since(spanHWEval, time.Now())
	pre := lt.eval.EvalStats()
	t := time.Now()
	m, err := lt.eval.HWEvalCtx(ctx, nets, d)
	dt := time.Since(t)
	if err != nil {
		return m, err
	}
	post := lt.eval.EvalStats()
	switch {
	case post.HWEvals > pre.HWEvals:
		lt.misses = append(lt.misses, hwCall{nets, d, m})
		lt.missTime += dt
		lt.sigNets = append(lt.sigNets, nets)
	case post.HWCacheHits > pre.HWCacheHits:
		lt.hits++
		lt.hitTime += dt
		lt.sigNets = append(lt.sigNets, nets)
	}
	return m, nil
}

// hwBatch evaluates one episode's 1+φ candidates as core does — decode each
// design, collapse identical designs, evaluate the distinct ones, fan the
// metrics back out — but sequentially.
func (lt *loopTrace) hwBatch(ctx context.Context, nets []*dnn.Network, eps []*rl.Episode) ([]core.HWMetrics, error) {
	designs := make([]accel.Design, len(eps))
	rep := make([]int, len(eps))
	uniq := make(map[string]int, len(eps))
	for i, ep := range eps {
		designs[i] = lt.decodeDesign(ep.Actions)
		t := time.Now()
		fp := designs[i].Fingerprint()
		lt.since(spanDesign, t)
		if j, ok := uniq[fp]; ok {
			rep[i] = j
			lt.dedup++
			continue
		}
		uniq[fp] = i
		rep[i] = i
	}
	out := make([]core.HWMetrics, len(eps))
	for i := range eps {
		if rep[i] != i {
			continue
		}
		m, err := lt.hwEval(ctx, nets, designs[i])
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	for i := range eps {
		out[i] = out[rep[i]]
	}
	return out, nil
}

// runRL is core.Explorer.RunContext's episode loop at the default
// configuration (batched controller, self-imitation replay), without refine.
func (lt *loopTrace) runRL(ctx context.Context) error {
	cfg := lt.cfg
	ctrl := rl.NewController(lt.specs, cfg.Hidden, stats.NewRNG(cfg.Seed))
	start := time.Now()
	trMain, trHW := rl.NewTrainer(), rl.NewTrainer()
	opt := nn.NewRMSProp()
	opt.LR, opt.LRDecay, opt.LRDecaySteps = cfg.LR, cfg.LRDecay, cfg.LRDecaySteps
	mask := make([]bool, len(lt.specs))
	for i := lt.archLen; i < len(mask); i++ {
		mask[i] = true
	}
	ctrl.EntropyCoef = cfg.EntropyCoef
	batchScale := 1.0 / float64(cfg.Batch)
	pending := 0
	var bestEpisode *rl.Episode
	var bestReward float64
	for ep := 0; ep < cfg.Episodes; ep++ {
		t := time.Now()
		combined := ctrl.Sample()
		archActs := combined.Actions[:lt.archLen]
		hwEps := append(make([]*rl.Episode, 0, 1+cfg.HWSteps), combined)
		if cfg.HWSteps > 0 {
			hwEps = append(hwEps, ctrl.SampleForcedBatch(archActs, cfg.HWSteps)...)
		}
		lt.since(spanSample, t)
		lt.rollouts += len(hwEps)
		choices, nets, err := lt.decodeArch(archActs)
		if err != nil {
			return fmt.Errorf("controller produced an undecodable architecture: %w", err)
		}
		metrics, err := lt.hwBatch(ctx, nets, hwEps)
		if err != nil {
			return err
		}
		pens := make([]float64, len(metrics))
		for i, m := range metrics {
			pens[i] = lt.penalty(m)
		}
		bestIdx, bestPen := 0, pens[0]
		for i := 1; i < len(metrics); i++ {
			if p := pens[i]; p < bestPen-1e-12 || (p < bestPen+1e-12 && metrics[i].EnergyNJ < metrics[bestIdx].EnergyNJ) {
				bestIdx, bestPen = i, p
			}
		}
		feasible := bestPen == 0
		var weighted float64
		var accs []float64
		if feasible {
			accs = lt.accuracies(nets)
			weighted = lt.w.Weighted(accs)
		}

		t = time.Now()
		ctrl.Accumulate(combined, trMain.Advantage(lt.eval.Reward(weighted, pens[0])), cfg.Gamma, batchScale)
		hwAdvs := make([]float64, len(hwEps))
		for i := range hwEps {
			hwAdvs[i] = trHW.Advantage(-cfg.Rho * pens[i])
		}
		ctrl.AccumulateMaskedBatch(hwEps, hwAdvs, cfg.Gamma, batchScale/float64(len(hwEps)), mask)
		if solReward := lt.eval.Reward(weighted, bestPen); feasible && (bestEpisode == nil || solReward > bestReward) {
			bestEpisode, bestReward = hwEps[bestIdx], solReward
		}
		if cfg.ReplayCoef > 0 && bestEpisode != nil {
			if adv := bestReward - trMain.Baseline(); adv > 0 {
				ctrl.Accumulate(bestEpisode, cfg.ReplayCoef*adv, cfg.Gamma, batchScale)
			}
		}
		lt.since(spanAccumulate, t)
		pending++
		if pending >= cfg.Batch || ep == cfg.Episodes-1 {
			t = time.Now()
			ctrl.Update(opt)
			lt.since(spanUpdate, t)
			pending = 0
		}

		if feasible {
			m := metrics[bestIdx]
			sol := &core.Solution{
				Episode: ep, ArchChoices: choices, Networks: nets,
				Design:     lt.decodeDesign(hwEps[bestIdx].Actions),
				Accuracies: accs, Weighted: weighted,
				Latency: m.Latency, EnergyNJ: m.EnergyNJ, AreaUM2: m.AreaUM2,
				Reward: lt.eval.Reward(weighted, 0), Feasible: true,
			}
			if lt.best == nil || sol.Weighted > lt.best.Weighted {
				lt.best = sol
			}
		}
	}
	lt.wall = time.Since(start)
	return nil
}

// runEA is core.Explorer.RunEvolutionContext's generational loop, without
// refine. The RNG draws follow the original one for one.
func (lt *loopTrace) runEA(ctx context.Context, ec core.EvolutionConfig) error {
	if err := ec.Validate(); err != nil {
		return err
	}
	start := time.Now()
	rng := stats.NewRNG(lt.cfg.Seed ^ 0xea)
	type individual struct {
		genome          []int
		reward, penalty float64
		sol             *core.Solution
	}
	evaluate := func(g []int) (individual, error) {
		ind := individual{genome: append([]int(nil), g...)}
		choices, nets, err := lt.decodeArch(g[:lt.archLen])
		if err != nil {
			ind.reward = -1e9
			return ind, nil
		}
		d := lt.decodeDesign(g)
		m, err := lt.hwEval(ctx, nets, d)
		if err != nil {
			return individual{}, err
		}
		ind.penalty = lt.penalty(m)
		if ind.penalty > 0 {
			ind.reward = lt.eval.Reward(0, ind.penalty)
			return ind, nil
		}
		accs := lt.accuracies(nets)
		weighted := lt.w.Weighted(accs)
		ind.reward = lt.eval.Reward(weighted, 0)
		ind.sol = &core.Solution{
			ArchChoices: choices, Networks: nets, Design: d,
			Accuracies: accs, Weighted: weighted,
			Latency: m.Latency, EnergyNJ: m.EnergyNJ, AreaUM2: m.AreaUM2,
			Reward: ind.reward, Feasible: true,
		}
		return ind, nil
	}
	record := func(gen int, ind individual) {
		if ind.sol == nil {
			return
		}
		s := *ind.sol
		s.Episode = gen
		if lt.best == nil || s.Weighted > lt.best.Weighted {
			lt.best = &s
		}
	}

	pop := make([]individual, 0, ec.Population)
	for i := 0; i < ec.Population; i++ {
		t := time.Now()
		g := make([]int, len(lt.specs))
		for j, s := range lt.specs {
			g[j] = rng.Intn(s.NumOptions)
		}
		lt.since(spanBreed, t)
		ind, err := evaluate(g)
		if err != nil {
			return err
		}
		pop = append(pop, ind)
	}
	for _, ind := range pop {
		record(0, ind)
	}
	tournament := func() individual {
		best := pop[rng.Intn(len(pop))]
		for k := 1; k < ec.TournamentK; k++ {
			if c := pop[rng.Intn(len(pop))]; c.reward > best.reward {
				best = c
			}
		}
		return best
	}
	for gen := 1; gen <= ec.Generations; gen++ {
		t := time.Now()
		sort.Slice(pop, func(i, j int) bool { return pop[i].reward > pop[j].reward })
		next := append(make([]individual, 0, ec.Population), pop[:ec.Elite]...)
		lt.since(spanBreed, t)
		for len(next) < ec.Population {
			t := time.Now()
			child := append([]int(nil), tournament().genome...)
			if rng.Float64() < ec.CrossoverRate {
				b := tournament()
				for i := range child {
					if rng.Float64() < 0.5 {
						child[i] = b.genome[i]
					}
				}
			}
			for i, s := range lt.specs {
				if rng.Float64() < ec.MutationRate {
					child[i] = rng.Intn(s.NumOptions)
				}
			}
			lt.since(spanBreed, t)
			ind, err := evaluate(child)
			if err != nil {
				return err
			}
			record(gen, ind)
			next = append(next, ind)
		}
		pop = next
	}
	lt.wall = time.Since(start)
	return nil
}

// replayed is the replay of a traced loop's computed evaluations, made
// outside the timed loop: each cost table rebuilt through a
// maestro.CostMemo and solved with sched.HAPCtx, and every signature the
// program computed computed again.
type replayed struct {
	table, hap, signature    time.Duration
	layerRequests, layerHits int
	mismatches               int // solves whose makespan or energy differ from the evaluator's
}

// signatureSink keeps the replayed Signature calls from being optimized away.
var signatureSink string

func (lt *loopTrace) replay(ctx context.Context) (replayed, error) {
	var r replayed
	memo := maestro.NewCostMemo(lt.cfg.Cost)
	lt.warmBounds(memo)
	for _, c := range lt.misses {
		t := time.Now()
		p, reqs, hits := lt.problem(memo, c.nets, c.d)
		r.table += time.Since(t)
		r.layerRequests += reqs
		r.layerHits += hits
		t = time.Now()
		_, res, err := sched.HAPCtx(ctx, p)
		r.hap += time.Since(t)
		if err != nil {
			return r, fmt.Errorf("replay HAP: %w", err)
		}
		if res.Makespan != c.m.Latency || math.Float64bits(res.EnergyNJ) != math.Float64bits(c.m.EnergyNJ) {
			r.mismatches++
		}
	}
	t := time.Now()
	for _, nets := range lt.sigNets {
		for _, n := range nets {
			signatureSink = n.Signature()
		}
	}
	r.signature = time.Since(t)
	return r, nil
}

// problem builds the HAP cost table of nets on d's active sub-accelerators
// through memo, as the evaluator does (the explorations run with the
// solver's default tuning), and counts the memo's requests and hits.
func (lt *loopTrace) problem(memo *maestro.CostMemo, nets []*dnn.Network, d accel.Design) (p sched.Problem, reqs, hits int) {
	active := d.Active()
	p = sched.Problem{NumAccels: len(active), Deadline: lt.w.Specs.LatencyCycles}
	for ni, n := range nets {
		ch := sched.Chain{Name: fmt.Sprintf("net%d", ni)}
		for _, l := range n.ComputeLayers() {
			sl := sched.Layer{Name: l.Name, Options: make([]sched.Option, len(active))}
			for ai, di := range active {
				sub := d.Subs[di]
				lc, hit := memo.LayerCost(l, sub.DF, sub.PEs, sub.BW)
				reqs++
				if hit {
					hits++
				}
				sl.Options[ai] = sched.Option{Cycles: lc.Cycles, EnergyNJ: lc.EnergyNJ, BufferBytes: lc.BufferBytes}
			}
			ch.Layers = append(ch.Layers, sl)
		}
		p.Chains = append(p.Chains, ch)
	}
	return p, reqs, hits
}

// warmBounds replays the evaluator's penalty-bound sampling into memo — 60
// random resource-feasible designs (seeded Seed^0x5eed) on every task's
// largest network, duplicates served by the hardware cache — so the replay
// memo starts where the evaluator's stood when the loop began.
func (lt *loopTrace) warmBounds(memo *maestro.CostMemo) {
	rng := stats.NewRNG(lt.cfg.Seed ^ 0x5eed)
	nets := make([]*dnn.Network, len(lt.w.Tasks))
	for i, t := range lt.w.Tasks {
		nets[i] = t.Space.MustDecode(t.Space.Largest())
	}
	hw := lt.cfg.HW
	seen := map[string]bool{}
	for s := 0; s < 60; s++ {
		var d accel.Design
		for {
			subs := make([]accel.SubAccel, hw.NumSubs)
			for i := range subs {
				subs[i] = accel.SubAccel{
					DF:  hw.Styles[rng.Intn(len(hw.Styles))],
					PEs: hw.PEOptions[rng.Intn(len(hw.PEOptions))],
					BW:  hw.BWOptions[rng.Intn(len(hw.BWOptions))],
				}
			}
			if d = accel.NewDesign(subs...); d.Validate(hw.Limits) == nil {
				break
			}
		}
		if fp := d.Fingerprint(); !seen[fp] {
			seen[fp] = true
			lt.problem(memo, nets, d)
		}
	}
}
