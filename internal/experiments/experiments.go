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
	// CacheDir backs the memo bundle each experiment call shares across its
	// searches with a persistent on-disk warm tier: the bundle is loaded
	// from this directory before the first search and saved back when the
	// call returns (core.Memos.LoadDir/SaveDir), so a second process pointed
	// at the same directory replays the experiment with ~100% memo hit
	// rates. Empty (the zero value) keeps the warm tier off. Results are
	// bit-identical either way; only the reported hit rates and wall clock
	// change.
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

// config returns the search configuration of one experiment call. Every
// search of the call shares its memo bundle (see core.Memos), so the
// baselines — which each build a fresh evaluator — start warm; the bundle
// is warm-loaded from CacheDir, and the call saves it with save.
func (b Budget) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Episodes = b.Episodes
	cfg.Seed = b.Seed
	cfg.Memos = core.NewMemos(cfg.Cost)
	cfg.Memos.LoadDir(b.CacheDir)
	return cfg
}

// save snapshots a call's memo bundle into CacheDir (a no-op without one).
// A failed save never fails the experiment: the tier only saves work.
func (b Budget) save(cfg core.Config) { _ = cfg.Memos.SaveDir(b.CacheDir) }

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
