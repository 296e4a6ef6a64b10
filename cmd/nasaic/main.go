// Command nasaic runs the NASAIC co-exploration for one of the paper's
// workloads and reports the best identified (architectures, accelerator)
// pair together with the exploration statistics. It is a thin shell over the
// public pkg/nasaic API — the same code path cmd/nasaicd serves over HTTP.
//
// Runs are deterministic per seed: bit-identical across hosts, worker
// counts and cache states. That invariant is machine-checked by the
// cmd/nasaiclint analyzers (run in CI via `go vet -vettool`) on top of the
// differential test suites.
//
// Usage:
//
//	nasaic -workload W1 [-episodes 500] [-seed 1] [-top 5] [-quiet] [-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"nasaic/internal/export"
	"nasaic/internal/profiling"
	"nasaic/pkg/nasaic"
)

func main() {
	var (
		wName      = flag.String("workload", "W1", "workload to explore: W1 (CIFAR-10+Nuclei), W2 (CIFAR-10+STL-10), W3 (CIFAR-10 x2)")
		episodes   = flag.Int("episodes", 500, "exploration episodes (beta in the paper)")
		hwSteps    = flag.Int("hw-steps", 10, "hardware-only steps per episode (phi, at most 1024)")
		seed       = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		top        = flag.Int("top", 5, "how many explored solutions to print")
		quiet      = flag.Bool("quiet", false, "print only the best solution line")
		progress   = flag.Bool("progress", false, "stream per-episode progress lines to stderr")
		optim      = flag.String("optimizer", "rl", "search strategy: rl (the paper's RNN controller) or ea (evolutionary)")
		trace      = flag.Bool("trace", false, "print the best solution's layer-to-sub-accelerator schedule")
		cachedir   = flag.String("cachedir", "", "directory for the persistent cache warm tier; a second run pointed here starts with warm memos (results are identical either way)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
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

	// Ctrl-C cancels the search promptly; the partial result is discarded
	// (use cmd/nasaicd for resumable streaming of long runs).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []nasaic.Option{
		nasaic.WithWorkload(*wName),
		nasaic.WithEpisodes(*episodes),
		nasaic.WithHWSteps(*hwSteps),
		nasaic.WithSeed(*seed),
		nasaic.WithOptimizer(nasaic.Optimizer(*optim)),
		nasaic.WithCacheDir(*cachedir),
	}
	if *progress {
		opts = append(opts, nasaic.WithEventHandler(func(e nasaic.Event) {
			best := ""
			if e.Best != nil {
				best = fmt.Sprintf("  best=%.4f", e.Best.WeightedAccuracy)
			}
			fmt.Fprintf(os.Stderr, "episode %d  reward=%.4f  feasible=%v%s\n",
				e.Episode, e.Reward, e.Feasible, best)
		}))
	}

	if !*quiet {
		fmt.Printf("NASAIC co-exploration on %s  episodes=%d  phi=%d  seed=%d  optimizer=%s\n",
			*wName, *episodes, *hwSteps, *seed, *optim)
	}
	res, err := nasaic.Run(ctx, opts...)
	if err != nil {
		fail(1, err)
	}
	if res.Best == nil {
		fmt.Printf("no feasible solution found in %d episodes (pruned %d)\n",
			res.Episodes, res.Stats.PrunedEpisodes)
		stopProf()
		os.Exit(1)
	}

	best := res.Best
	fmt.Printf("best: %s\n", best.Design)
	for _, t := range best.Tasks {
		fmt.Printf("  %-14s %s = %s  arch %s\n",
			t.Dataset, t.Metric, export.Pct(t.Accuracy), t.Architecture)
	}
	fmt.Printf("  latency %s cycles   energy %s nJ   area %s um2   (specs %s)\n",
		export.Sci(float64(best.LatencyCycles)), export.Sci(best.EnergyNJ),
		export.Sci(best.AreaUM2), res.Specs)
	if *trace {
		fmt.Println()
		if err := res.RenderSchedule(os.Stdout, 96); err != nil {
			fail(1, err)
		}
	}
	if *quiet {
		return
	}

	st := res.Stats
	fmt.Printf("\nexploration: %d feasible solutions, %d episodes pruned, %d trainings, %d hardware evaluations\n",
		len(res.Explored), st.PrunedEpisodes, st.Trainings, st.HWEvals)
	fmt.Printf("hw-eval cache: %d of %d requests served from cache (%.1f%%), %d in-batch dedups\n",
		st.HWCacheHits, st.HWRequests, st.HWCacheHitPct(), st.HWDeduped)
	fmt.Printf("layer-cost memo: %d of %d cost-model queries served from memo (%.1f%%)\n",
		st.LayerCostHits, st.LayerCostRequests, st.LayerCostHitPct())
	n := *top
	if n > len(res.Explored) {
		n = len(res.Explored)
	}
	fmt.Printf("top %d explored solutions:\n", n)
	for _, s := range res.Explored[:n] {
		fmt.Printf("  %s\n", s)
	}
}
