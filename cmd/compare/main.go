// Command compare regenerates the paper's comparison tables through the
// public pkg/nasaic API:
//
//	compare -table 1    # Table I: NAS→ASIC vs ASIC→HW-NAS vs NASAIC (W1, W2)
//	compare -table 2    # Table II: single vs homogeneous vs heterogeneous (W3)
//
// Pass -paper for the full §V-A search budget (β=500, 10,000 Monte Carlo
// runs) or use the default quick budget that preserves the result shapes.
// -csv writes a machine-readable copy next to the printed table.
//
// Tables are bit-identical across runs, hosts and cache temperatures (CI
// diffs warm vs cold regenerations); the determinism rules behind that are
// machine-checked by the cmd/nasaiclint analyzers via `go vet -vettool`.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"nasaic/pkg/nasaic"
)

func main() {
	var (
		table      = flag.Int("table", 1, "table to regenerate: 1 or 2")
		paper      = flag.Bool("paper", false, "use the paper's full search budget")
		seed       = flag.Int64("seed", 1, "random seed")
		csv        = flag.String("csv", "", "optional path for CSV export (table 1 only)")
		hwcache    = flag.Bool("hwcache", true, "memoize hardware evaluations (results are identical either way)")
		sharedmemo = flag.Bool("sharedmemo", false, "share the layer-cost memo process-wide and the accuracy memo across the table's searches (warm-start; results are identical)")
		cachedir   = flag.String("cachedir", "", "directory for the persistent cache warm tier; a second run pointed here starts with warm memos (results are identical either way)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	b := nasaic.QuickBudget()
	if *paper {
		b = nasaic.PaperBudget()
	}
	b.Seed = *seed
	b.DisableHWCache = !*hwcache
	b.SharedMemo = *sharedmemo
	b.CacheDir = *cachedir

	printStats := func(stats nasaic.ExperimentStats) {
		fmt.Printf("\nNASAIC evaluator work: %d hardware evaluations for %d requests (%.1f%% cache hits, %d in-batch dedups), %d trainings\n",
			stats.HWEvals, stats.HWRequests, stats.HWCacheHitPct(), stats.HWDeduped, stats.Trainings)
		scope := "per-run"
		if *sharedmemo {
			scope = "shared process-wide, warm-start"
		}
		fmt.Printf("layer-cost memo (%s): %d of %d cost-model queries served (%.1f%%)\n",
			scope, stats.LayerCostHits, stats.LayerCostRequests, stats.LayerCostHitPct())
	}

	switch *table {
	case 1:
		// Buffer the CSV and only touch the target file after the searches
		// succeed, so a failed or interrupted run cannot truncate a
		// previously exported copy.
		var csvBuf bytes.Buffer
		var csvW io.Writer
		if *csv != "" {
			csvW = &csvBuf
		}
		stats, err := nasaic.Table1(ctx, b, os.Stdout, csvW)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csv != "" {
			if err := os.WriteFile(*csv, csvBuf.Bytes(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		printStats(stats)
	case 2:
		stats, err := nasaic.Table2(ctx, b, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printStats(stats)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d (want 1 or 2)\n", *table)
		os.Exit(2)
	}
}
