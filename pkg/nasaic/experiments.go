package nasaic

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nasaic/internal/experiments"
	"nasaic/internal/export"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Budget scales the search effort of the paper-evaluation wrappers (Table1,
// Table2, Fig1, Fig6). The zero value of the cache fields keeps the
// hardware-evaluation cache on and every memo private to its search; they
// are bit-identical switches that only change wall clock and reported
// counters.
type Budget struct {
	// Episodes is NASAIC's β (paper: 500); MCRuns the Monte Carlo sample
	// count (paper: 10,000); NASSamples and HWSamples bound the baselines'
	// sampling.
	Episodes   int   `json:"episodes"`
	MCRuns     int   `json:"mc_runs"`
	NASSamples int   `json:"nas_samples"`
	HWSamples  int   `json:"hw_samples"`
	Seed       int64 `json:"seed"`
	// DisableHWCache turns off the hardware-evaluation cache.
	DisableHWCache bool `json:"disable_hw_cache,omitempty"`
	// SharedMemo shares the layer-cost memo process-wide and one accuracy
	// memo across the experiment's searches (warm-start).
	SharedMemo bool `json:"shared_memo,omitempty"`
	// CacheDir backs every search's memo tiers with the persistent on-disk
	// warm tier under this directory (see WithCacheDir); empty keeps the
	// warm tier off.
	CacheDir string `json:"cache_dir,omitempty"`
}

// QuickBudget is the reduced configuration used by tests and benchmarks;
// result shapes (who wins, what is feasible) are preserved.
func QuickBudget() Budget { return budgetFrom(experiments.QuickBudget()) }

// PaperBudget is the full-fidelity configuration of §V-A.
func PaperBudget() Budget { return budgetFrom(experiments.PaperBudget()) }

func budgetFrom(b experiments.Budget) Budget {
	return Budget{
		Episodes: b.Episodes, MCRuns: b.MCRuns,
		NASSamples: b.NASSamples, HWSamples: b.HWSamples, Seed: b.Seed,
	}
}

func (b Budget) internal() experiments.Budget {
	return experiments.Budget{
		Episodes:       b.Episodes,
		MCRuns:         b.MCRuns,
		NASSamples:     b.NASSamples,
		HWSamples:      b.HWSamples,
		Seed:           b.Seed,
		DisableHWCache: b.DisableHWCache,
		SharedMemo:     b.SharedMemo,
		CacheDir:       b.CacheDir,
	}
}

// ExperimentStats aggregates evaluator work across an experiment's NASAIC
// runs.
type ExperimentStats struct {
	Trainings         int `json:"trainings"`
	HWRequests        int `json:"hw_requests"`
	HWEvals           int `json:"hw_evals"`
	HWCacheHits       int `json:"hw_cache_hits"`
	HWDeduped         int `json:"hw_deduped"`
	LayerCostRequests int `json:"layer_cost_requests"`
	LayerCostHits     int `json:"layer_cost_hits"`
}

// HWCacheHitPct returns the percentage of hardware requests served from
// cache.
func (s ExperimentStats) HWCacheHitPct() float64 {
	return stats.Pct(int64(s.HWCacheHits), int64(s.HWRequests))
}

// LayerCostHitPct returns the percentage of cost-model queries served by the
// per-layer memo.
func (s ExperimentStats) LayerCostHitPct() float64 {
	return stats.Pct(int64(s.LayerCostHits), int64(s.LayerCostRequests))
}

func experimentStats(st experiments.SearchStats) ExperimentStats {
	return ExperimentStats{
		Trainings:         st.Trainings,
		HWRequests:        st.HWRequests,
		HWEvals:           st.HWEvals,
		HWCacheHits:       st.HWCacheHits,
		HWDeduped:         st.HWDeduped,
		LayerCostRequests: st.LayerCostRequests,
		LayerCostHits:     st.LayerCostHits,
	}
}

// Table1 regenerates Table I (NAS→ASIC vs ASIC→HW-NAS vs NASAIC on W1/W2),
// rendering it to out and, when csv is non-nil, writing the machine-readable
// rows there. The context aborts the underlying searches promptly.
func Table1(ctx context.Context, b Budget, out io.Writer, csv io.Writer) (ExperimentStats, error) {
	rows, st, err := experiments.Table1(ctx, b.internal())
	if err != nil {
		return ExperimentStats{}, err
	}
	experiments.RenderTable1(out, rows)
	if csv != nil {
		header, body := experiments.Table1CSV(rows)
		if err := export.CSV(csv, header, body); err != nil {
			return ExperimentStats{}, err
		}
	}
	return experimentStats(st), nil
}

// Table2 regenerates Table II (single vs homogeneous vs heterogeneous
// accelerators on W3), rendering it to out.
func Table2(ctx context.Context, b Budget, out io.Writer) (ExperimentStats, error) {
	rows, st, err := experiments.Table2(ctx, b.internal())
	if err != nil {
		return ExperimentStats{}, err
	}
	experiments.RenderTable2(out, rows)
	return experimentStats(st), nil
}

// Fig1 regenerates the motivating design-space exploration, rendering the
// ASCII projection to out and, when csvDir is non-empty, writing fig1.csv
// there.
func Fig1(ctx context.Context, b Budget, out io.Writer, csvDir string) error {
	d, err := experiments.Fig1(ctx, b.internal())
	if err != nil {
		return err
	}
	experiments.RenderFig1(out, d)
	if csvDir == "" {
		return nil
	}
	h, rows := experiments.PointsCSV(d.NASASIC, "nas_asic")
	extra := []experiments.MetricPoint{d.HWNAS}
	if d.Heuristic != nil {
		extra = append(extra, *d.Heuristic)
	}
	if d.Optimal != nil {
		extra = append(extra, *d.Optimal)
	}
	_, extraRows := experiments.PointsCSV(extra, "highlight")
	return writeCSV(out, csvDir, "fig1.csv", h, append(rows, extraRows...))
}

// Fig6 regenerates one workload panel of Fig. 6, rendering it to out and,
// when csvDir is non-empty, writing fig6_<workload>.csv there.
func Fig6(ctx context.Context, workloadName string, b Budget, out io.Writer, csvDir string) (ExperimentStats, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return ExperimentStats{}, err
	}
	d, err := experiments.Fig6(ctx, w, b.internal())
	if err != nil {
		return ExperimentStats{}, err
	}
	experiments.RenderFig6(out, d)
	st := experimentStats(d.Stats)
	if csvDir == "" {
		return st, nil
	}
	h, rows := experiments.PointsCSV(d.Explored, "explored")
	_, lbRows := experiments.PointsCSV(d.LowerBounds, "lower_bound")
	_, bestRows := experiments.PointsCSV([]experiments.MetricPoint{d.Best}, "best")
	rows = append(rows, lbRows...)
	rows = append(rows, bestRows...)
	return st, writeCSV(out, csvDir, fmt.Sprintf("fig6_%s.csv", w.Name), h, rows)
}

// writeCSV writes one CSV export under dir, reporting the path to out.
func writeCSV(out io.Writer, dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.CSV(f, header, rows); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
