// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (NAS→ASIC vs ASIC→HW-NAS vs NASAIC on W1/W2),
// Table II (single vs homogeneous vs heterogeneous accelerators on W3),
// Fig. 1 (design-space exploration for CIFAR-10) and Fig. 6 (NASAIC
// exploration results for W1–W3). The same entry points back the cmd/
// binaries and the root bench_test.go harness; a Scale parameter shrinks
// search budgets so benchmarks finish in minutes while the shapes persist.
package experiments

import (
	"nasaic/internal/accel"
	"nasaic/internal/core"
	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
	"nasaic/internal/predictor"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Budget scales the search effort of every experiment.
type Budget struct {
	// Episodes is NASAIC's β (paper: 500).
	Episodes int
	// MCRuns is the Monte Carlo sample count (paper: 10,000).
	MCRuns int
	// NASSamples bounds the mono-objective NAS sampling of the baselines.
	NASSamples int
	// HWSamples bounds the brute-force hardware exploration of NAS→ASIC.
	HWSamples int
	// Seed drives every deterministic RNG.
	Seed int64
	// DisableHWCache turns off the hardware-evaluation cache (the zero
	// value keeps it on). Results are bit-identical either way; only wall
	// clock and the reported evaluation counts change.
	DisableHWCache bool
	// SharedMemo promotes the layer-cost memo to the process-wide
	// maestro.SharedCostMemo and shares one accuracy-predictor memo across
	// all of an experiment's searches, so the Table I/II baselines — which
	// build a fresh evaluator per approach — start warm. Both memoize pure
	// functions: results are bit-identical, only the reported hit rates,
	// training counts and wall clock change.
	SharedMemo bool
	// CacheDir backs the layer-cost memo and hardware-evaluation caches of
	// every search in the experiment with a persistent on-disk warm tier
	// (see core.Config.CacheDir): snapshots under this directory are loaded
	// when each evaluator is built and written back after each search, so a
	// second process pointed at the same directory replays the experiment
	// with ~100% memo hit rates. Empty (the zero value) keeps the warm tier
	// off. Results are bit-identical either way; only the reported hit
	// rates and wall clock change.
	CacheDir string
}

// PaperBudget is the full-fidelity configuration of §V-A.
func PaperBudget() Budget {
	return Budget{Episodes: 500, MCRuns: 10000, NASSamples: 500, HWSamples: 2000, Seed: 1}
}

// QuickBudget is the reduced configuration used by `go test -bench`; shapes
// (who wins, what is feasible) are preserved, absolute search quality is
// slightly lower. The reduction is documented in EXPERIMENTS.md.
func QuickBudget() Budget {
	return Budget{Episodes: 150, MCRuns: 1200, NASSamples: 120, HWSamples: 300, Seed: 1}
}

func (b Budget) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Episodes = b.Episodes
	cfg.Seed = b.Seed
	cfg.HWCache = !b.DisableHWCache
	cfg.ShareLayerMemo = b.SharedMemo
	cfg.CacheDir = b.CacheDir
	return cfg
}

// accMemo returns the experiment-wide accuracy memo (nil unless SharedMemo).
func (b Budget) accMemo() *core.AccuracyMemo {
	if !b.SharedMemo {
		return nil
	}
	return core.NewAccuracyMemo()
}

// SearchStats aggregates evaluator work across an experiment's NASAIC runs:
// how many hardware evaluations were requested, how many actually ran, how
// many the evalcache layer or the in-batch dedup absorbed, and how much of
// the cost-model traffic the per-layer memo served.
type SearchStats struct {
	Trainings         int
	HWRequests        int
	HWEvals           int
	HWCacheHits       int
	HWDeduped         int
	LayerCostRequests int
	LayerCostHits     int
}

// HitPct returns the percentage of hardware requests served from cache.
func (s SearchStats) HitPct() float64 {
	return stats.Pct(int64(s.HWCacheHits), int64(s.HWRequests))
}

// LayerHitPct returns the percentage of cost-model queries served by the
// evaluator's per-layer memo.
func (s SearchStats) LayerHitPct() float64 {
	return stats.Pct(int64(s.LayerCostHits), int64(s.LayerCostRequests))
}

// add folds one NASAIC run's counters into the aggregate.
func (s *SearchStats) add(res *core.Result) {
	s.Trainings += res.Trainings
	s.HWRequests += res.HWRequests
	s.HWEvals += res.HWEvals
	s.HWCacheHits += res.HWCacheHits
	s.HWDeduped += res.HWDeduped
	s.LayerCostRequests += res.LayerCostRequests
	s.LayerCostHits += res.LayerCostHits
}

// archString renders the selected hyperparameter values of a choice vector
// in the paper's tuple notation.
func archString(sp *dnn.Space, choices []int) string {
	return sp.ValuesString(choices)
}

// DatasetRow is one dataset line within an approach row (Table I groups two
// datasets per approach).
type DatasetRow struct {
	Dataset  string
	Metric   string
	Arch     string
	Accuracy float64
}

// ApproachResult is one approach's outcome on one workload.
type ApproachResult struct {
	Workload string
	Approach string
	Hardware string
	Rows     []DatasetRow

	Latency  int64
	EnergyNJ float64
	AreaUM2  float64
	Feasible bool
}

// singleCIFARWorkload builds a one-task CIFAR-10 workload with the given
// specs (used by Fig. 1 and the Table II single/homogeneous rows).
func singleCIFARWorkload(name string, specs workload.Specs) workload.Workload {
	return workload.Workload{
		Name: name,
		Tasks: []workload.TaskSpec{
			{Name: "cifar", Dataset: predictor.CIFAR10, Space: dnn.CIFARResNetSpace(), Weight: 1},
		},
		Specs: specs,
	}
}

// singleSubSpace restricts the hardware space to one sub-accelerator with
// the given resource limits.
func singleSubSpace(maxPEs, maxBW int) accel.Space {
	full := accel.DefaultSpace()
	s := accel.Space{
		Limits:  accel.Limits{MaxPEs: maxPEs, MaxBW: maxBW},
		NumSubs: 1,
		Styles:  full.Styles,
	}
	for _, p := range full.PEOptions {
		if p > 0 && p <= maxPEs {
			s.PEOptions = append(s.PEOptions, p)
		}
	}
	for _, b := range full.BWOptions {
		if b <= maxBW {
			s.BWOptions = append(s.BWOptions, b)
		}
	}
	return s
}

// maxSingleDesign is the all-resources single accelerator the paper pairs
// with spec-blind NAS in Table II: ⟨dla, 4096, 64⟩.
func maxSingleDesign() accel.Design {
	return accel.NewDesign(
		accel.SubAccel{DF: dataflow.NVDLA, PEs: 4096, BW: 64},
		accel.SubAccel{DF: dataflow.Shidiannao, PEs: 0, BW: 8},
	)
}
