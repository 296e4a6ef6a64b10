package nasaic

import (
	"context"
	"errors"
	"fmt"
	"io"

	"nasaic/internal/core"
	"nasaic/internal/sched"
	"nasaic/internal/workload"
)

// Run executes one NASAIC co-exploration and returns the best identified
// (architectures, accelerator) pair together with every feasible solution
// found. It is deterministic in the seed: for a fixed option set an
// uncancelled Run returns bit-identical results regardless of worker count,
// caching, memo sharing, or event subscribers.
//
// The context is honoured promptly — it is checked every episode and
// threaded through the hardware-evaluation worker pool into the HAP solver
// worker pools, and cancellation leaks no goroutines. A cancelled or expired
// run returns the partial Result accumulated so far together with the
// context's error; callers that only care about complete runs can ignore the
// Result whenever err != nil.
func Run(ctx context.Context, opts ...Option) (*Result, error) {
	s, w, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	// Warm the shared bundle from the persistent tier before the evaluator is
	// built (once per bundle; later runs are already warm in-process).
	if s.cfg.CacheDir != "" && s.shared != nil {
		s.shared.LoadDir(s.cfg.CacheDir)
	}
	x, err := core.New(w, s.cfg)
	if err != nil {
		return nil, err
	}
	if len(s.handlers) > 0 || len(s.channels) > 0 {
		handlers := s.handlers
		channels := s.channels
		x.OnEpisode = func(ev core.EpisodeEvent) {
			e := convertEvent(w, ev)
			for _, h := range handlers {
				h(e)
			}
			for _, ch := range channels {
				// Block on the receiver while the run is live; once ctx is
				// done, drop rather than wedge the cancelled run on an
				// abandoned channel.
				select {
				case ch <- e:
				case <-ctx.Done():
				}
			}
		}
	}

	var (
		cres   *core.Result
		runErr error
	)
	switch s.optimizer {
	case OptimizerEA:
		ec := core.DefaultEvolutionConfig()
		// Match the RL budget: Population × Generations ≈ Episodes × (1+φ).
		ec.Generations = s.cfg.Episodes * (1 + s.cfg.HWSteps) / ec.Population
		if ec.Generations < 1 {
			ec.Generations = 1
		}
		cres, runErr = x.RunEvolutionContext(ctx, ec)
	default:
		cres, runErr = x.RunContext(ctx)
	}
	// Persist the warm tier even after a cancelled run: every resident entry
	// memoizes a pure function, so partial snapshots are as valid as full
	// ones. Save failures never fail the run — the tier is an accelerator,
	// not a dependency.
	if s.cfg.CacheDir != "" {
		_ = x.SaveCaches()
		if s.shared != nil {
			_ = s.shared.SaveDir(s.cfg.CacheDir)
		}
	}
	return convertResult(w, x, cres), runErr
}

// Validate reports the error Run would return for opts before searching —
// an option error, an unknown workload or an invalid configuration — without
// running anything. A service calls it to reject a request before accepting
// it.
func Validate(opts ...Option) error {
	_, _, err := resolve(opts)
	return err
}

// resolve applies opts over the defaults and checks the outcome the way
// core.New will.
func resolve(opts []Option) (settings, workload.Workload, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	if len(s.errs) > 0 {
		return s, workload.Workload{}, errors.Join(s.errs...)
	}
	w, err := workload.ByName(s.workload)
	if err != nil {
		return s, w, err
	}
	return s, w, s.cfg.Validate()
}

// WorkloadInfo describes one selectable workload.
type WorkloadInfo struct {
	Name  string   `json:"name"`
	Specs Specs    `json:"specs"`
	Tasks []string `json:"tasks"`
}

// Workloads lists the workloads WithWorkload accepts.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range []workload.Workload{workload.W1(), workload.W2(), workload.W3()} {
		info := WorkloadInfo{Name: w.Name, Specs: convertSpecs(w.Specs)}
		for _, t := range w.Tasks {
			info.Tasks = append(info.Tasks, fmt.Sprintf("%s (%s)", t.Name, t.Dataset))
		}
		out = append(out, info)
	}
	return out
}

// RenderSchedule writes the best solution's layer-to-sub-accelerator Gantt
// chart (the map() and sch() of §III-➌ made visible) to w. It errors when
// the result has no feasible solution or was deserialized rather than
// produced by Run in this process.
func (r *Result) RenderSchedule(w io.Writer, width int) error {
	if r.Best == nil {
		return fmt.Errorf("nasaic: no feasible solution to schedule")
	}
	if r.explorer == nil || r.core == nil || r.core.Best == nil {
		return fmt.Errorf("nasaic: schedule rendering needs a Result produced by Run in this process")
	}
	best := r.core.Best
	problem, _, placements, err := r.explorer.Evaluator().Schedule(best.Networks, best.Design)
	if err != nil {
		return err
	}
	sched.RenderGantt(w, problem, placements, width)
	return nil
}

// DetachEngine drops the Result's reference to the exploration engine
// (evaluator, caches, controller, raw solutions), freeing its memory while
// keeping every exported field intact. RenderSchedule stops working after
// detaching. Long-lived holders of many Results — e.g. a job history —
// should detach once they no longer need the schedule view.
func (r *Result) DetachEngine() {
	r.explorer = nil
	r.core = nil
}

// convertSpecs mirrors the internal workload specs.
func convertSpecs(sp workload.Specs) Specs {
	return Specs{LatencyCycles: sp.LatencyCycles, EnergyNJ: sp.EnergyNJ, AreaUM2: sp.AreaUM2}
}

// convertSolution mirrors one core solution into the public shape.
func convertSolution(w workload.Workload, sol *core.Solution) *Solution {
	if sol == nil {
		return nil
	}
	out := &Solution{
		Episode:          sol.Episode,
		WeightedAccuracy: sol.Weighted,
		LatencyCycles:    sol.Latency,
		EnergyNJ:         sol.EnergyNJ,
		AreaUM2:          sol.AreaUM2,
		Feasible:         sol.Feasible,
	}
	for _, s := range sol.Design.Subs {
		out.Design.Subs = append(out.Design.Subs, SubAccel{
			Dataflow:     s.DF.String(),
			PEs:          s.PEs,
			BandwidthGBs: s.BW,
		})
	}
	for i, t := range w.Tasks {
		tr := TaskResult{
			Name:    t.Name,
			Dataset: t.Dataset.String(),
			Metric:  t.Dataset.Metric(),
		}
		if i < len(sol.Accuracies) {
			tr.Accuracy = sol.Accuracies[i]
		}
		if i < len(sol.ArchChoices) {
			tr.Choices = append([]int(nil), sol.ArchChoices[i]...)
			tr.Architecture = t.Space.ValuesString(sol.ArchChoices[i])
		}
		out.Tasks = append(out.Tasks, tr)
	}
	return out
}

// convertEvent mirrors one core episode event into the public shape.
func convertEvent(w workload.Workload, ev core.EpisodeEvent) Event {
	return Event{
		Episode:     ev.Stats.Episode,
		Reward:      ev.Stats.Reward,
		Feasible:    ev.Stats.Feasible,
		Pruned:      ev.Stats.Pruned,
		HWEvals:     ev.Stats.HWEvals,
		HWCacheHits: ev.Stats.HWCacheHits,
		HWDeduped:   ev.Stats.HWDeduped,
		Explored:    ev.Explored,
		Best:        convertSolution(w, ev.Best),
	}
}

// convertResult mirrors the core result into the public shape.
func convertResult(w workload.Workload, x *core.Explorer, res *core.Result) *Result {
	if res == nil {
		return nil
	}
	out := &Result{
		Workload: w.Name,
		Specs:    convertSpecs(w.Specs),
		Episodes: len(res.History),
		Best:     convertSolution(w, res.Best),
		Stats: Stats{
			Trainings:         res.Trainings,
			HWRequests:        res.HWRequests,
			HWEvals:           res.HWEvals,
			HWCacheHits:       res.HWCacheHits,
			HWDeduped:         res.HWDeduped,
			LayerCostRequests: res.LayerCostRequests,
			LayerCostHits:     res.LayerCostHits,
			PrunedEpisodes:    res.Pruned,
		},
		explorer: x,
		core:     res,
	}
	for _, s := range res.Explored {
		out.Explored = append(out.Explored, convertSolution(w, s))
	}
	return out
}
