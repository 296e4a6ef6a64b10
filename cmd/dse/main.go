// Command dse regenerates the paper's design-space exploration figures
// through the public pkg/nasaic API:
//
//	dse -fig 1                    # Fig. 1: motivating CIFAR-10 study
//	dse -fig 6 -workload W1       # Fig. 6 panels (W1, W2 or W3)
//
// Each run prints an ASCII latency-energy projection and, with -out, writes
// the full 3-D point series as CSV for external plotting. Point series are
// deterministic per seed — an invariant machine-checked by the
// cmd/nasaiclint analyzers (CI runs them via `go vet -vettool`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"nasaic/internal/profiling"
	"nasaic/pkg/nasaic"
)

func main() {
	var (
		fig        = flag.Int("fig", 6, "figure to regenerate: 1 or 6")
		wName      = flag.String("workload", "W1", "workload for fig 6: W1, W2 or W3")
		paper      = flag.Bool("paper", false, "use the paper's full search budget")
		seed       = flag.Int64("seed", 1, "random seed")
		out        = flag.String("out", "", "optional directory for CSV export")
		hwcache    = flag.Bool("hwcache", true, "memoize hardware evaluations (results are identical either way)")
		sharedmemo = flag.Bool("sharedmemo", false, "share the layer-cost and accuracy memos across the figure's searches (warm-start; results are identical)")
		cachedir   = flag.String("cachedir", "", "directory for the persistent cache warm tier; a second run pointed here starts with warm memos (results are identical either way)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	// fail flushes the profiles before exiting: os.Exit skips deferred calls,
	// and an unterminated CPU profile is unreadable.
	fail := func(code int, msg any) {
		fmt.Fprintln(os.Stderr, msg)
		stopProf()
		os.Exit(code)
	}

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

	switch *fig {
	case 1:
		if err := nasaic.Fig1(ctx, b, os.Stdout, *out); err != nil {
			fail(1, err)
		}
	case 6:
		st, err := nasaic.Fig6(ctx, *wName, b, os.Stdout, *out)
		if err != nil {
			fail(1, err)
		}
		fmt.Printf("evaluator work: %d hardware evaluations for %d requests (%.1f%% cache hits, %d in-batch dedups)\n",
			st.HWEvals, st.HWRequests, st.HWCacheHitPct(), st.HWDeduped)
		fmt.Printf("layer-cost memo: %d of %d cost-model queries served (%.1f%%)\n",
			st.LayerCostHits, st.LayerCostRequests, st.LayerCostHitPct())
	default:
		fail(2, fmt.Sprintf("unknown figure %d (want 1 or 6)", *fig))
	}
}
