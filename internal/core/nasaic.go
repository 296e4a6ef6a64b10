package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nasaic/internal/accel"
	"nasaic/internal/dnn"
	"nasaic/internal/nn"
	"nasaic/internal/rl"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Solution is one fully evaluated (architectures, accelerator) pair.
type Solution struct {
	Episode int

	ArchChoices [][]int // per task, option indices into the task space
	Networks    []*dnn.Network
	Design      accel.Design

	Accuracies []float64
	Weighted   float64

	Latency  int64
	EnergyNJ float64
	AreaUM2  float64

	Penalty  float64
	Reward   float64
	Feasible bool

	// actions is the controller action vector that produced the solution
	// (kept for the refinement phase).
	actions []int
}

// String renders a compact report line.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ep%d %s", s.Episode, s.Design)
	for i, a := range s.Accuracies {
		fmt.Fprintf(&b, " acc%d=%.4f", i, a)
	}
	fmt.Fprintf(&b, " L=%.3g E=%.3g A=%.3g feasible=%v",
		float64(s.Latency), s.EnergyNJ, s.AreaUM2, s.Feasible)
	return b.String()
}

// EpisodeStats records per-episode search telemetry.
type EpisodeStats struct {
	Episode     int
	Reward      float64
	BestPenalty float64
	Pruned      bool // early pruning fired: no feasible hardware, training skipped
	Feasible    bool
	// HWEvals and HWCacheHits are the episode's deltas of the evaluator's
	// computation and cache-hit counters; HWDeduped counts candidates the
	// batch-level dedup collapsed before fan-out. They describe evaluation
	// cost only — search results are identical whatever their values.
	HWEvals     int
	HWCacheHits int
	HWDeduped   int
}

// Result is the outcome of one NASAIC exploration.
type Result struct {
	Workload workload.Workload
	Best     *Solution   // highest weighted accuracy among feasible solutions
	Explored []*Solution // every feasible solution found (Fig. 6 green diamonds)
	History  []EpisodeStats
	// Trainings and HWEvals count evaluator work; Pruned counts episodes the
	// early-pruning path skipped training for.
	Trainings int
	HWEvals   int
	Pruned    int
	// HWRequests counts hardware evaluation requests; HWCacheHits the
	// requests the evalcache layer served without recomputation; HWDeduped
	// the identical in-batch candidates collapsed before worker fan-out.
	// HWEvals above is the computations actually performed.
	HWRequests  int
	HWCacheHits int
	HWDeduped   int
	// LayerCostRequests counts cost-model queries seen by the evaluator's
	// per-layer memo; LayerCostHits the queries it served without running
	// the MAESTRO model.
	LayerCostRequests int
	LayerCostHits     int
}

// HWCacheHitPct returns the percentage of hardware requests served from the
// evaluation cache.
func (r *Result) HWCacheHitPct() float64 {
	return stats.Pct(int64(r.HWCacheHits), int64(r.HWRequests))
}

// LayerCostHitPct returns the percentage of cost-model queries served by the
// per-layer memo.
func (r *Result) LayerCostHitPct() float64 {
	return stats.Pct(int64(r.LayerCostHits), int64(r.LayerCostRequests))
}

// EpisodeEvent is the streaming progress notification delivered to
// Explorer.OnEpisode after every episode (RL mode) or generation (EA mode).
type EpisodeEvent struct {
	// Stats is the finished episode's telemetry.
	Stats EpisodeStats
	// Best is the best-so-far solution (nil before the first feasible one).
	// It is shared with the eventual Result and must not be mutated.
	Best *Solution
	// Explored is the running count of feasible solutions found.
	Explored int
}

// Explorer runs the NASAIC search for one workload.
type Explorer struct {
	W   workload.Workload
	Cfg Config

	// OnEpisode, when non-nil, is invoked synchronously on the exploration
	// goroutine after every episode. It must not call back into the
	// explorer; a slow handler slows the search down but never changes its
	// results.
	OnEpisode func(EpisodeEvent)

	eval       *Evaluator
	ctrl       *rl.Controller
	archLen    int   // total architecture decisions (all task segments)
	taskOffset []int // decision offset of each task segment
	hwOffset   int   // decision offset of the hardware segments
	hwDeduped  int   // in-batch duplicate candidates collapsed before fan-out
}

// New builds an explorer; the controller's decision sequence is the
// concatenation of every task's hyperparameter segment followed by every
// sub-accelerator's ⟨dataflow, #PEs, NoC BW⟩ segment (Fig. 5).
func New(w workload.Workload, cfg Config) (*Explorer, error) {
	eval, err := NewEvaluator(w, cfg)
	if err != nil {
		return nil, err
	}
	var specs []rl.DecisionSpec
	var taskOffset []int
	for ti, t := range w.Tasks {
		taskOffset = append(taskOffset, len(specs))
		for _, d := range t.Space.Decisions {
			specs = append(specs, rl.DecisionSpec{
				Name:       fmt.Sprintf("t%d.%s", ti, d.Name),
				NumOptions: len(d.Options),
			})
		}
	}
	archLen := len(specs)
	hw := cfg.HW
	for si := 0; si < hw.NumSubs; si++ {
		specs = append(specs,
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.df", si+1), NumOptions: len(hw.Styles)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.pe", si+1), NumOptions: len(hw.PEOptions)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.bw", si+1), NumOptions: len(hw.BWOptions)},
		)
	}
	ctrl := rl.NewController(specs, cfg.Hidden, stats.NewRNG(cfg.Seed))
	return &Explorer{
		W: w, Cfg: cfg,
		eval: eval, ctrl: ctrl,
		archLen: archLen, taskOffset: taskOffset, hwOffset: archLen,
	}, nil
}

// Evaluator exposes the underlying evaluator (bounds, penalty, HAP access)
// for harnesses and baselines.
func (x *Explorer) Evaluator() *Evaluator { return x.eval }

// decodeArch splits a rollout's architecture actions per task and builds the
// networks.
func (x *Explorer) decodeArch(actions []int) ([][]int, []*dnn.Network, error) {
	choices := make([][]int, len(x.W.Tasks))
	nets := make([]*dnn.Network, len(x.W.Tasks))
	for ti, t := range x.W.Tasks {
		off := x.taskOffset[ti]
		n := t.Space.NumChoices()
		choices[ti] = append([]int(nil), actions[off:off+n]...)
		net, err := t.Space.Decode(choices[ti])
		if err != nil {
			return nil, nil, err
		}
		nets[ti] = net
	}
	return choices, nets, nil
}

// decodeDesign builds the accelerator design from a rollout's hardware
// actions.
func (x *Explorer) decodeDesign(actions []int) accel.Design {
	hw := x.Cfg.HW
	subs := make([]accel.SubAccel, hw.NumSubs)
	for si := 0; si < hw.NumSubs; si++ {
		off := x.hwOffset + 3*si
		subs[si] = accel.SubAccel{
			DF:  hw.Styles[actions[off]],
			PEs: hw.PEOptions[actions[off+1]],
			BW:  hw.BWOptions[actions[off+2]],
		}
	}
	return accel.NewDesign(subs...)
}

// hwMask marks the hardware segment steps (SA=0, SH=1 credit mask).
func (x *Explorer) hwMask() []bool {
	mask := make([]bool, x.ctrl.NumDecisions())
	for i := x.hwOffset; i < len(mask); i++ {
		mask[i] = true
	}
	return mask
}

// Run executes the full co-exploration and returns the result. It is
// deterministic in Config.Seed.
func (x *Explorer) Run() *Result {
	res, _ := x.RunContext(context.Background()) //lint:allow ctxplumb compat shim: non-ctx public API delegates to RunContext
	return res
}

// RunContext is Run with cooperative cancellation: the context is checked
// every episode and threaded through the hardware-evaluation worker pool into
// the HAP solver, so cancellation or a deadline aborts the search promptly
// and leaves no goroutines behind. On cancellation it returns the partial
// result accumulated so far (completed episodes, best-so-far solution,
// evaluator counters) together with ctx's error; the refinement phase is
// skipped. Uncancelled runs are bit-identical to Run for the same seed.
func (x *Explorer) RunContext(ctx context.Context) (*Result, error) {
	res := &Result{Workload: x.W}
	var runErr error
	trMain := rl.NewTrainer()
	trHW := rl.NewTrainer()
	newOpt := func() *nn.RMSProp {
		o := nn.NewRMSProp()
		o.LR = x.Cfg.LR
		o.LRDecay = x.Cfg.LRDecay
		o.LRDecaySteps = x.Cfg.LRDecaySteps
		return o
	}
	opt := newOpt()
	mask := x.hwMask()
	x.ctrl.EntropyCoef = x.Cfg.EntropyCoef
	pending := 0
	var bestEpisode *rl.Episode
	var bestReward float64

	for ep := 0; ep < x.Cfg.Episodes; ep++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		// ① SA=SH=1: one combined architecture+hardware step.
		combined := x.ctrl.Sample()
		archActs := combined.Actions[:x.archLen]
		choices, nets, err := x.decodeArch(archActs)
		if err != nil {
			panic(fmt.Sprintf("core: controller produced undecodable architecture: %v", err))
		}

		// ② SA=0, SH=1 for φ steps: explore hardware for this architecture.
		// All 1+φ hardware evaluations run in parallel (the paper's
		// non-blocking scheme). The φ forced rollouts share one lockstep
		// batch through the controller's matrix-matrix fast path.
		hwEps := make([]*rl.Episode, 0, 1+x.Cfg.HWSteps)
		hwEps = append(hwEps, combined)
		if x.Cfg.HWSteps > 0 {
			hwEps = append(hwEps, x.ctrl.SampleForcedBatch(archActs, x.Cfg.HWSteps)...)
		}
		preEval := x.eval.EvalStats()
		preDedup := x.hwDeduped
		metrics, err := x.parallelHWEval(ctx, nets, hwEps)
		if err != nil {
			runErr = err
			break
		}
		postEval := x.eval.EvalStats()

		// Pick the best hardware among the explored candidates: feasible
		// first, then lowest penalty, then lowest energy.
		bestIdx := 0
		bestPen := x.eval.Penalty(metrics[0])
		for i := 1; i < len(metrics); i++ {
			p := x.eval.Penalty(metrics[i])
			better := p < bestPen-1e-12 ||
				(p < bestPen+1e-12 && metrics[i].EnergyNJ < metrics[bestIdx].EnergyNJ)
			if better {
				bestIdx, bestPen = i, p
			}
		}

		st := EpisodeStats{
			Episode:     ep,
			BestPenalty: bestPen,
			HWEvals:     postEval.HWEvals - preEval.HWEvals,
			HWCacheHits: postEval.HWCacheHits - preEval.HWCacheHits,
			HWDeduped:   x.hwDeduped - preDedup,
		}

		// ③ Early pruning: when no explored hardware is feasible, skip the
		// (expensive) training path entirely.
		var weighted float64
		var accs []float64
		if bestPen == 0 {
			accs = x.eval.Accuracies(nets)
			weighted = x.W.Weighted(accs)
			st.Feasible = true
		} else {
			st.Pruned = true
			res.Pruned++
		}

		// Reward and controller updates. The combined step uses Eq. (4)
		// with its own hardware sample; hardware-only steps use the
		// accuracy-free reward (−ρ·P), masked to the hardware segment.
		batchScale := 1.0 / float64(x.Cfg.Batch)
		combinedPen := x.eval.Penalty(metrics[0])
		combinedReward := x.eval.Reward(weighted, combinedPen)
		x.ctrl.Accumulate(combined, trMain.Advantage(combinedReward), x.Cfg.Gamma, batchScale)

		hwScale := batchScale / float64(len(hwEps))
		hwAdvs := make([]float64, len(hwEps))
		for i := range hwEps {
			r := -x.Cfg.Rho * x.eval.Penalty(metrics[i])
			hwAdvs[i] = trHW.Advantage(r)
		}
		// One lockstep BPTT over the whole hardware batch.
		x.ctrl.AccumulateMaskedBatch(hwEps, hwAdvs, x.Cfg.Gamma, hwScale, mask)
		// Self-imitation replay: reinforce the best complete sample so far.
		// The best candidate's hardware actions may come from a hardware-
		// only step; replay the episode that contains them.
		if solReward := x.eval.Reward(weighted, bestPen); st.Feasible &&
			(bestEpisode == nil || solReward > bestReward) {
			bestEpisode, bestReward = hwEps[bestIdx], solReward
		}
		if x.Cfg.ReplayCoef > 0 && bestEpisode != nil {
			adv := bestReward - trMain.Baseline()
			if adv > 0 {
				x.ctrl.Accumulate(bestEpisode, x.Cfg.ReplayCoef*adv, x.Cfg.Gamma, batchScale)
			}
		}

		pending++
		if pending >= x.Cfg.Batch || ep == x.Cfg.Episodes-1 {
			x.ctrl.Update(opt)
			pending = 0
		}

		st.Reward = combinedReward
		res.History = append(res.History, st)

		// Record the episode's best candidate as an explored solution.
		if bestPen == 0 {
			m := metrics[bestIdx]
			sol := &Solution{
				Episode:     ep,
				ArchChoices: choices,
				Networks:    nets,
				Design:      x.decodeDesign(hwEps[bestIdx].Actions),
				Accuracies:  accs,
				Weighted:    weighted,
				Latency:     m.Latency,
				EnergyNJ:    m.EnergyNJ,
				AreaUM2:     m.AreaUM2,
				Penalty:     0,
				Reward:      x.eval.Reward(weighted, 0),
				Feasible:    true,
				actions:     append([]int(nil), hwEps[bestIdx].Actions...),
			}
			res.Explored = append(res.Explored, sol)
			if res.Best == nil || sol.Weighted > res.Best.Weighted {
				res.Best = sol
			}
		}

		if x.OnEpisode != nil {
			x.OnEpisode(EpisodeEvent{Stats: st, Best: res.Best, Explored: len(res.Explored)})
		}
	}

	// Exploit phase: multi-start coordinate-descent refinement of the top
	// explored solutions. Skipped on cancellation — the partial result keeps
	// the raw exploration outcome.
	if runErr == nil && x.Cfg.Refine && res.Best != nil {
		sort.Slice(res.Explored, func(i, j int) bool {
			return res.Explored[i].Weighted > res.Explored[j].Weighted
		})
		const starts = 3
		specs := x.ctrl.Specs()
		hopRNG := stats.NewRNG(x.Cfg.Seed ^ 0x40b)
		top := len(res.Explored)
		for i := 0; i < starts && i < top; i++ {
			if err := ctx.Err(); err != nil {
				runErr = err
				break
			}
			refined := x.refineFrom(res.Explored[i], specs, hopRNG)
			if refined.Weighted > res.Best.Weighted {
				res.Best = refined
				res.Explored = append(res.Explored, refined)
			}
		}
	}

	x.fillEvalStats(res)
	sort.Slice(res.Explored, func(i, j int) bool {
		return res.Explored[i].Weighted > res.Explored[j].Weighted
	})
	return res, runErr
}

// fillEvalStats copies the evaluator's work counters into the result.
func (x *Explorer) fillEvalStats(res *Result) {
	s := x.eval.EvalStats()
	res.Trainings = s.Trainings
	res.HWEvals = s.HWEvals
	res.HWRequests = s.HWRequests
	res.HWCacheHits = s.HWCacheHits
	res.HWDeduped = x.hwDeduped
	res.LayerCostRequests = s.LayerCostRequests
	res.LayerCostHits = s.LayerCostHits
}

// parallelHWEval evaluates the designs of the given episodes concurrently,
// preserving order. Identical designs within the batch — common once the
// controller's hardware policy starts converging — are collapsed to a single
// evaluation before fan-out, so a batch of N duplicates costs one HAP solve
// even with the evaluation cache disabled. The networks are fixed across the
// batch, so the design fingerprint alone identifies duplicates. A done
// context stops the fan-out, lets every worker drain and exit, and returns
// ctx's error; the partially filled metrics are discarded.
func (x *Explorer) parallelHWEval(ctx context.Context, nets []*dnn.Network, eps []*rl.Episode) ([]HWMetrics, error) {
	out := make([]HWMetrics, len(eps))
	designs := make([]accel.Design, len(eps))
	rep := make([]int, len(eps)) // index of each candidate's representative
	uniq := make(map[string]int, len(eps))
	var uniqIdx []int
	for i := range eps {
		designs[i] = x.decodeDesign(eps[i].Actions)
		fp := designs[i].Fingerprint()
		if j, ok := uniq[fp]; ok {
			rep[i] = j
			x.hwDeduped++
			continue
		}
		uniq[fp] = i
		rep[i] = i
		uniqIdx = append(uniqIdx, i)
	}

	workers := x.Cfg.workers()
	if workers > len(uniqIdx) {
		workers = len(uniqIdx)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A cancelled context makes HWEvalCtx return immediately,
				// so the drain after the send loop breaks is prompt. The
				// zero metrics left behind never escape: the caller
				// discards the batch on error.
				m, err := x.eval.HWEvalCtx(ctx, nets, designs[i])
				if err != nil {
					continue
				}
				out[i] = m
			}
		}()
	}
send:
	for _, i := range uniqIdx {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break send
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range eps {
		out[i] = out[rep[i]]
	}
	return out, nil
}
