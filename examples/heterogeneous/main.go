// Heterogeneous: the Table II study (§V-D) — on the homogeneous CIFAR-10
// workload W3, quantify the benefit of going from a single accelerator to
// homogeneous sub-accelerators to NASAIC's heterogeneous design.
//
//	go run ./examples/heterogeneous [-paper]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nasaic/internal/experiments"
)

func main() {
	paper := flag.Bool("paper", false, "use the paper's full search budget (slower)")
	flag.Parse()

	b := experiments.QuickBudget()
	if *paper {
		b = experiments.PaperBudget()
	}

	fmt.Println("Single vs homogeneous vs heterogeneous accelerators on W3")
	fmt.Println("(CIFAR-10 x2, specs <4e5 cycles, 1e9 nJ, 4e9 um2>)")
	fmt.Println()
	rows, stats, err := experiments.Table2(context.Background(), b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experiments.RenderTable2(os.Stdout, rows)
	fmt.Printf("\nevaluator work: %d hardware evaluations for %d requests (%.1f%% cache hits, %d in-batch dedups)\n",
		stats.HWEvals, stats.HWRequests, stats.HWCacheHitPct(), stats.HWDeduped)

	fmt.Println()
	fmt.Println("Reading the table bottom-up: spec-blind NAS reaches the highest")
	fmt.Println("accuracy but violates the specs even with every PE in the budget;")
	fmt.Println("a single accelerator must run the network twice and is capped by")
	fmt.Println("the halved per-run budget; homogeneous sub-accelerators restore")
	fmt.Println("task parallelism; and the heterogeneous NASAIC design pairs each")
	fmt.Println("network with the dataflow that fits it, reaching the best accuracy")
	fmt.Println("while meeting every spec — with two distinct networks usable for")
	fmt.Println("ensemble inference [31].")
}
