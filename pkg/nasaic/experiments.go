package nasaic

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nasaic/internal/experiments"
	"nasaic/internal/export"
	"nasaic/internal/workload"
)

// Budget scales the search effort of the paper-evaluation wrappers (Table1,
// Table2, Fig1, Fig6). Each wrapper call shares one memo bundle across all
// of its searches; CacheDir only changes wall clock and reported counters.
type Budget struct {
	// Episodes is NASAIC's β (paper: 500); MCRuns the Monte Carlo sample
	// count (paper: 10,000); NASSamples and HWSamples bound the baselines'
	// sampling.
	Episodes   int   `json:"episodes"`
	MCRuns     int   `json:"mc_runs"`
	NASSamples int   `json:"nas_samples"`
	HWSamples  int   `json:"hw_samples"`
	Seed       int64 `json:"seed"`
	// CacheDir backs the call's memo bundle with the persistent on-disk
	// warm tier under this directory (see WithCacheDir), loaded before the
	// first search and saved once the call returns; empty keeps the warm
	// tier off.
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
		Episodes:   b.Episodes,
		MCRuns:     b.MCRuns,
		NASSamples: b.NASSamples,
		HWSamples:  b.HWSamples,
		Seed:       b.Seed,
		CacheDir:   b.CacheDir,
	}
}

// Table1 regenerates Table I (NAS→ASIC vs ASIC→HW-NAS vs NASAIC on W1/W2),
// rendering it to out and, when csv is non-nil, writing the machine-readable
// rows there. The context aborts the underlying searches promptly.
func Table1(ctx context.Context, b Budget, out io.Writer, csv io.Writer) (Stats, error) {
	rows, st, err := experiments.Table1(ctx, b.internal())
	if err != nil {
		return Stats{}, err
	}
	experiments.RenderTable1(out, rows)
	if csv != nil {
		header, body := experiments.Table1CSV(rows)
		if err := export.CSV(csv, header, body); err != nil {
			return Stats{}, err
		}
	}
	return st, nil
}

// Table2 regenerates Table II (single vs homogeneous vs heterogeneous
// accelerators on W3), rendering it to out.
func Table2(ctx context.Context, b Budget, out io.Writer) (Stats, error) {
	rows, st, err := experiments.Table2(ctx, b.internal())
	if err != nil {
		return Stats{}, err
	}
	experiments.RenderTable2(out, rows)
	return st, nil
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
func Fig6(ctx context.Context, workloadName string, b Budget, out io.Writer, csvDir string) (Stats, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return Stats{}, err
	}
	d, err := experiments.Fig6(ctx, w, b.internal())
	if err != nil {
		return Stats{}, err
	}
	experiments.RenderFig6(out, d)
	if csvDir == "" {
		return d.Stats, nil
	}
	h, rows := experiments.PointsCSV(d.Explored, "explored")
	_, lbRows := experiments.PointsCSV(d.LowerBounds, "lower_bound")
	_, bestRows := experiments.PointsCSV([]experiments.MetricPoint{d.Best}, "best")
	rows = append(rows, lbRows...)
	rows = append(rows, bestRows...)
	return d.Stats, writeCSV(out, csvDir, fmt.Sprintf("fig6_%s.csv", w.Name), h, rows)
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
