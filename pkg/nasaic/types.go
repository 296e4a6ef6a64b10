package nasaic

import (
	"fmt"
	"strings"

	"nasaic/internal/core"
	"nasaic/internal/workload"
)

// SubAccel is one sub-accelerator of a heterogeneous design.
type SubAccel struct {
	// Dataflow is the template style ("dla", "shi", "eye").
	Dataflow string `json:"dataflow"`
	// PEs is the number of processing elements.
	PEs int `json:"pes"`
	// BandwidthGBs is the NoC bandwidth in GB/s.
	BandwidthGBs int `json:"bandwidth_gbs"`
}

// String renders the paper's ⟨dataflow, #PEs, BW⟩ notation.
func (s SubAccel) String() string {
	return fmt.Sprintf("<%s, %d, %d>", s.Dataflow, s.PEs, s.BandwidthGBs)
}

// Design is a complete heterogeneous accelerator.
type Design struct {
	Subs []SubAccel `json:"subs"`
}

// String renders the sub-accelerator tuples in design order.
func (d Design) String() string {
	parts := make([]string, len(d.Subs))
	for i, s := range d.Subs {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// TaskResult is one task's outcome within a solution.
type TaskResult struct {
	// Name is the task's name within the workload (e.g. "classification").
	Name string `json:"name"`
	// Dataset and Metric identify what Accuracy measures (e.g. CIFAR-10
	// accuracy, Nuclei IoU).
	Dataset  string  `json:"dataset"`
	Metric   string  `json:"metric"`
	Accuracy float64 `json:"accuracy"`
	// Architecture renders the selected hyperparameters in the paper's
	// tuple notation; Choices are the raw option indices into the task's
	// search space.
	Architecture string `json:"architecture"`
	Choices      []int  `json:"choices"`
}

// Solution is one fully evaluated (architectures, accelerator) pair.
type Solution struct {
	// Episode is the exploration episode that produced the solution.
	Episode int          `json:"episode"`
	Design  Design       `json:"design"`
	Tasks   []TaskResult `json:"tasks"`
	// WeightedAccuracy is Eq. (2): the α-weighted sum of task accuracies.
	WeightedAccuracy float64 `json:"weighted_accuracy"`
	LatencyCycles    int64   `json:"latency_cycles"`
	EnergyNJ         float64 `json:"energy_nj"`
	AreaUM2          float64 `json:"area_um2"`
	Feasible         bool    `json:"feasible"`
}

// String renders a compact report line.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ep%d %s", s.Episode, s.Design)
	for _, t := range s.Tasks {
		fmt.Fprintf(&b, " %s=%.4f", t.Metric, t.Accuracy)
	}
	fmt.Fprintf(&b, " L=%.3g E=%.3g A=%.3g feasible=%v",
		float64(s.LatencyCycles), s.EnergyNJ, s.AreaUM2, s.Feasible)
	return b.String()
}

// Specs are the workload's unified design specifications ⟨LS, ES, AS⟩.
type Specs struct {
	LatencyCycles int64   `json:"latency_cycles"`
	EnergyNJ      float64 `json:"energy_nj"`
	AreaUM2       float64 `json:"area_um2"`
}

// String renders the paper's ⟨LS, ES, AS⟩ notation.
func (s Specs) String() string {
	return workload.Specs{LatencyCycles: s.LatencyCycles, EnergyNJ: s.EnergyNJ, AreaUM2: s.AreaUM2}.String()
}

// Stats reports the evaluator work a run (or an experiment's runs)
// performed; its JSON is the `stats` object of results and job records.
type Stats = core.EvalStats

// Result is the outcome of one co-exploration run.
type Result struct {
	Workload string `json:"workload"`
	Specs    Specs  `json:"specs"`
	// Episodes is the number of completed episodes (generations in EA
	// mode); smaller than requested when the run was cancelled.
	Episodes int `json:"episodes"`
	// Best is the highest weighted-accuracy feasible solution (nil when
	// none was found).
	Best *Solution `json:"best,omitempty"`
	// Explored are all feasible solutions, best first.
	Explored []*Solution `json:"explored,omitempty"`
	Stats    Stats       `json:"stats"`

	// explorer retains the engine handle for RenderSchedule; core the raw
	// result (both nil after JSON round-trips).
	explorer *core.Explorer
	core     *core.Result
}

// Event is one per-episode progress notification.
type Event struct {
	// Episode is the finished episode's index (generation in EA mode).
	Episode int     `json:"episode"`
	Reward  float64 `json:"reward"`
	// Feasible reports whether the episode found spec-satisfying hardware;
	// Pruned whether the training path was skipped entirely.
	Feasible bool `json:"feasible"`
	Pruned   bool `json:"pruned"`
	// HWEvals/HWCacheHits/HWDeduped are the episode's evaluation-cost
	// deltas (computations run, cache hits, in-batch dedups).
	HWEvals     int `json:"hw_evals"`
	HWCacheHits int `json:"hw_cache_hits"`
	HWDeduped   int `json:"hw_deduped"`
	// Explored is the running count of feasible solutions; Best the
	// best-so-far solution (nil before the first feasible one).
	Explored int       `json:"explored"`
	Best     *Solution `json:"best,omitempty"`
}
