package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"nasaic/internal/accel"
	"nasaic/internal/dnn"
	"nasaic/internal/nn"
	"nasaic/internal/rl"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Solution is one fully evaluated (architectures, accelerator) pair: the
// point type of the explorer's results and of the comparison baselines
// (package search), which build it from their own samples' metrics.
type Solution struct {
	// Episode is the explorer episode that found the solution (0 for a
	// baseline's).
	Episode int

	// ArchChoices holds per task the option indices into the task space.
	// In an explorer solution, ArchChoices and Networks come from the
	// explorer's decode memo and are shared with every solution of the
	// same architecture: treat them as read-only.
	ArchChoices [][]int
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

	// actions is the controller action vector that produced an explorer
	// solution (kept for the refinement phase); baseline solutions carry
	// none.
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

// setDeltas fills the episode's evaluation-cost deltas between two search
// snapshots (Explorer.work).
func (st *EpisodeStats) setDeltas(pre, post EvalStats) {
	st.HWEvals = post.HWEvals - pre.HWEvals
	st.HWCacheHits = post.HWCacheHits - pre.HWCacheHits
	st.HWDeduped = post.HWDeduped - pre.HWDeduped
}

// Result is the outcome of one NASAIC exploration.
type Result struct {
	Workload workload.Workload
	Best     *Solution   // highest weighted accuracy among feasible solutions
	Explored []*Solution // every feasible solution found (Fig. 6 green diamonds)
	History  []EpisodeStats
	// EvalStats is the search's evaluator work, including the episodes
	// (generations) the early-pruning path skipped training for.
	EvalStats
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

	// decoded memoizes decodeArch per task decode, keyed by the varints of
	// the task index and its choice vector, so the search decodes and
	// fingerprints each distinct architecture once. It grows with the
	// search's distinct architectures and dies with the explorer. Only the
	// explorer goroutine touches it: every batch (RL round, EA generation,
	// refine sweep) is decoded there before evalBatch fans its hardware
	// evaluations out, so it needs no lock; keyBuf is its reusable key
	// scratch.
	decoded map[string]decodedArch
	keyBuf  []byte

	// arena backs the candidates of every evaluation batch (see batch.go);
	// roundDesigns maps an RL round's design fingerprints to their first
	// candidate for the in-batch dedup.
	arena        arena
	roundDesigns map[string]int
}

// decodedArch is one memoized task decode: the choice vector and its
// network, both shared read-only by every solution of that architecture.
type decodedArch struct {
	choices []int
	net     *dnn.Network
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
		decoded:      make(map[string]decodedArch),
		roundDesigns: make(map[string]int),
	}, nil
}

// Evaluator exposes the underlying evaluator (bounds, penalty, HAP access)
// for harnesses and baselines.
func (x *Explorer) Evaluator() *Evaluator { return x.eval }

// decodeArch splits a rollout's architecture actions per task and builds the
// networks into choices and nets (one entry per task), through the
// explorer's decode memo: equal choice vectors yield the same (read-only)
// choice slices and *dnn.Network pointers. Undecodable vectors are not
// memoized.
func (x *Explorer) decodeArch(actions []int, choices [][]int, nets []*dnn.Network) error {
	for ti, t := range x.W.Tasks {
		off := x.taskOffset[ti]
		c := actions[off : off+t.Space.NumChoices()]
		x.keyBuf = binary.AppendVarint(x.keyBuf[:0], int64(ti))
		for _, v := range c {
			x.keyBuf = binary.AppendVarint(x.keyBuf, int64(v))
		}
		d, ok := x.decoded[string(x.keyBuf)]
		if !ok {
			d.choices = append([]int(nil), c...)
			net, err := t.Space.Decode(d.choices)
			if err != nil {
				return err
			}
			d.net = net
			x.decoded[string(x.keyBuf)] = d
		}
		choices[ti], nets[ti] = d.choices, d.net
	}
	return nil
}

// decodeDesign builds the accelerator design of a rollout's hardware actions
// over subs, which holds one entry per sub-accelerator.
func (x *Explorer) decodeDesign(actions []int, subs []accel.SubAccel) accel.Design {
	hw := x.Cfg.HW
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
// every episode and threaded through every evaluation batch's workers into
// the HAP solver, so cancellation or a deadline aborts the search promptly
// and leaves no goroutines behind. On cancellation it returns the partial
// result accumulated so far (completed episodes, best-so-far solution,
// evaluator counters) together with ctx's error. A cancellation during
// exploration skips the refinement phase; one during refinement stops it:
// the refine starts completed before it are kept and nothing more is
// refined. Uncancelled runs are bit-identical to Run for the same seed.
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
		// ① SA=SH=1: one combined architecture+hardware rollout, and
		// ② SA=0, SH=1 for φ steps: φ hardware-only rollouts forced to its
		// architecture. All 1+φ rollouts step through the controller as one
		// lockstep batch, and all 1+φ hardware evaluations run in parallel
		// (the paper's non-blocking scheme).
		hwEps := x.ctrl.SampleRound(x.archLen, x.Cfg.HWSteps)
		combined := hwEps[0]
		choices := make([][]int, len(x.W.Tasks))
		nets := make([]*dnn.Network, len(x.W.Tasks))
		if err := x.decodeArch(combined.Actions[:x.archLen], choices, nets); err != nil {
			panic(fmt.Sprintf("core: controller produced undecodable architecture: %v", err))
		}
		pre := x.work()
		metrics, err := x.parallelHWEval(ctx, nets, hwEps)
		if err != nil {
			runErr = err
			break
		}
		post := x.work()

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

		st := EpisodeStats{Episode: ep, BestPenalty: bestPen}
		st.setDeltas(pre, post)

		// ③ Early pruning: when no explored hardware is feasible, skip the
		// (expensive) training path entirely. Otherwise the episode's best
		// candidate is trained and becomes an explored solution.
		var weighted float64
		var sol *Solution
		if bestPen == 0 {
			sol = x.solution(ep, hwEps[bestIdx].Actions, choices, nets, x.eval.Accuracies(nets), metrics[bestIdx])
			weighted = sol.Weighted
			st.Feasible = true
		} else {
			st.Pruned = true
		}

		// Reward and controller updates, in one lockstep BPTT over the
		// combined rollout, the 1+φ hardware rollouts and the replay. The
		// combined step uses Eq. (4) with its own hardware sample;
		// hardware-only steps use the accuracy-free reward (−ρ·P), masked
		// to the hardware segment.
		batchScale := 1.0 / float64(x.Cfg.Batch)
		combinedPen := x.eval.Penalty(metrics[0])
		combinedReward := x.eval.Reward(weighted, combinedPen)
		trainEps := make([]*rl.Episode, 0, len(hwEps)+2)
		credits := make([]rl.Credit, 0, len(hwEps)+2)
		trainEps = append(trainEps, combined)
		credits = append(credits, rl.Credit{Adv: trMain.Advantage(combinedReward), Scale: batchScale})

		hwScale := batchScale / float64(len(hwEps))
		for i, e := range hwEps {
			r := -x.Cfg.Rho * x.eval.Penalty(metrics[i])
			trainEps = append(trainEps, e)
			credits = append(credits, rl.Credit{Adv: trHW.Advantage(r), Scale: hwScale, Mask: mask})
		}
		// Self-imitation replay: reinforce the best complete sample so far.
		// The best candidate's hardware actions may come from a hardware-
		// only step; replay the episode that contains them. The round's
		// episodes are views the next round overwrites, so the kept one is
		// detached.
		if solReward := x.eval.Reward(weighted, bestPen); st.Feasible &&
			(bestEpisode == nil || solReward > bestReward) {
			bestEpisode, bestReward = hwEps[bestIdx].Detach(), solReward
		}
		if x.Cfg.ReplayCoef > 0 && bestEpisode != nil {
			if adv := bestReward - trMain.Baseline(); adv > 0 {
				trainEps = append(trainEps, bestEpisode)
				credits = append(credits, rl.Credit{Adv: x.Cfg.ReplayCoef * adv, Scale: batchScale})
			}
		}
		x.ctrl.AccumulateRound(trainEps, credits, x.Cfg.Gamma)

		pending++
		if pending >= x.Cfg.Batch || ep == x.Cfg.Episodes-1 {
			x.ctrl.Update(opt)
			pending = 0
		}

		st.Reward = combinedReward
		if sol != nil {
			res.explored(sol)
		}
		x.endEpisode(res, st)
	}
	return x.finish(ctx, res, runErr, x.Cfg.Seed^0x40b)
}

// solution builds the explored solution of a feasible action vector whose
// networks were decoded into choices and nets, trained to accs (Accuracies)
// and whose hardware evaluated to m. The solution keeps choices, nets and
// accs, and copies actions.
func (x *Explorer) solution(ep int, actions []int, choices [][]int, nets []*dnn.Network, accs []float64, m HWMetrics) *Solution {
	weighted := x.W.Weighted(accs)
	return &Solution{
		Episode:     ep,
		ArchChoices: choices,
		Networks:    nets,
		Design:      x.decodeDesign(actions, make([]accel.SubAccel, x.Cfg.HW.NumSubs)),
		Accuracies:  accs,
		Weighted:    weighted,
		Latency:     m.Latency,
		EnergyNJ:    m.EnergyNJ,
		AreaUM2:     m.AreaUM2,
		Reward:      x.eval.Reward(weighted, 0),
		Feasible:    true,
		actions:     append([]int(nil), actions...),
	}
}

// explored records a feasible solution, promoting it to Best when it has
// the highest weighted accuracy so far.
func (res *Result) explored(sol *Solution) {
	res.Explored = append(res.Explored, sol)
	if res.Best == nil || sol.Weighted > res.Best.Weighted {
		res.Best = sol
	}
}

// endEpisode appends a finished episode (RL) or generation (EA) to the
// history and streams it to OnEpisode.
func (x *Explorer) endEpisode(res *Result, st EpisodeStats) {
	res.History = append(res.History, st)
	if x.OnEpisode != nil {
		x.OnEpisode(EpisodeEvent{Stats: st, Best: res.Best, Explored: len(res.Explored)})
	}
}

// refineStarts is the number of top explored solutions the exploit phase
// refines.
const refineStarts = 3

// finish is the epilogue both optimizers share. Unless the search already
// failed, it runs the exploit phase: multi-start coordinate-descent
// refinement of the top explored solutions, with basin hops drawn from
// hopSeed. A done context stops refinement; the starts completed before it
// are kept and ctx's error is returned. finish then fills the result's work
// counters and sorts the explored solutions by weighted accuracy.
func (x *Explorer) finish(ctx context.Context, res *Result, runErr error, hopSeed int64) (*Result, error) {
	if runErr == nil && x.Cfg.Refine && res.Best != nil {
		sortExplored(res)
		specs := x.ctrl.Specs()
		hopRNG := stats.NewRNG(hopSeed)
		top := len(res.Explored)
		for i := 0; i < refineStarts && i < top; i++ {
			refined, err := x.refineFrom(ctx, res.Explored[i], specs, hopRNG)
			if err != nil {
				runErr = err
				break
			}
			if refined.Weighted > res.Best.Weighted {
				res.Best = refined
				res.Explored = append(res.Explored, refined)
			}
		}
	}
	res.EvalStats = x.work()
	for _, st := range res.History {
		if st.Pruned {
			res.PrunedEpisodes++
		}
	}
	sortExplored(res)
	return res, runErr
}

// sortExplored orders the explored solutions by decreasing weighted accuracy.
func sortExplored(res *Result) {
	sort.Slice(res.Explored, func(i, j int) bool {
		return res.Explored[i].Weighted > res.Explored[j].Weighted
	})
}

// work snapshots the search's evaluator counters, including its in-batch
// dedups.
func (x *Explorer) work() EvalStats {
	s := x.eval.EvalStats()
	s.HWDeduped = x.hwDeduped
	return s
}

// parallelHWEval evaluates the designs of an RL round's episodes as one
// batch (evalBatch), preserving order. Identical designs within the round —
// common once the controller's hardware policy starts converging — are
// collapsed to a single evaluation first, so a round of N duplicates costs
// one HAP solve even with the evaluation cache disabled. The networks are
// fixed across the round, so the design fingerprint alone identifies
// duplicates. A done context returns ctx's error with no metrics.
func (x *Explorer) parallelHWEval(ctx context.Context, nets []*dnn.Network, eps []*rl.Episode) ([]HWMetrics, error) {
	cands := x.batch(len(eps))
	clear(x.roundDesigns)
	for i, e := range eps {
		c := &cands[i]
		c.design = x.decodeDesign(e.Actions, c.design.Subs)
		fp := c.design.Fingerprint()
		if j, ok := x.roundDesigns[fp]; ok {
			c.skip, c.rep = true, j
			x.hwDeduped++
			continue
		}
		x.roundDesigns[fp] = i
		copy(c.nets, nets)
	}
	if err := x.evalBatch(ctx, cands); err != nil {
		return nil, err
	}
	out := make([]HWMetrics, len(eps))
	for i := range cands {
		out[i] = cands[i].m
		if cands[i].skip {
			out[i] = cands[cands[i].rep].m
		}
	}
	return out, nil
}
