// Multitask: the paper's motivating AR-glasses scenario (§I, §V-A) — one
// device concurrently runs an image-classification DNN and a medical-image
// segmentation DNN under a single latency/energy/area budget (workload W1).
//
// The example runs a compact NASAIC co-exploration and contrasts the result
// with the successive NAS→ASIC flow to show why co-exploration matters.
//
//	go run ./examples/multitask [-episodes 150]
package main

import (
	"context"
	"flag"
	"fmt"

	"nasaic/internal/core"
	"nasaic/internal/export"
	"nasaic/internal/search"
	"nasaic/internal/workload"
)

func main() {
	episodes := flag.Int("episodes", 150, "NASAIC exploration episodes")
	flag.Parse()

	w := workload.W1()
	fmt.Printf("AR-glasses workload %s: %s + %s under specs %s\n\n",
		w.Name, w.Tasks[0].Dataset, w.Tasks[1].Dataset, w.Specs)

	cfg := core.DefaultConfig()
	cfg.Episodes = *episodes
	cfg.Seed = 1

	// The successive flow: accuracy-only NAS, then brute-force hardware
	// search for the chosen networks.
	fmt.Println("1) successive NAS -> ASIC (the paper's strawman):")
	nas, err := search.NASToASIC(context.Background(), w, cfg, 150, 300)
	if err != nil {
		panic(err)
	}
	printOutcome(w, nas.Design.String(), nas.Accuracies, nas.Latency, nas.EnergyNJ, nas.AreaUM2, nas.Feasible)

	// The co-exploration flow.
	fmt.Printf("\n2) NASAIC co-exploration (%d episodes):\n", cfg.Episodes)
	x, err := core.New(w, cfg)
	if err != nil {
		panic(err)
	}
	res := x.Run()
	if res.Best == nil {
		fmt.Println("   no feasible solution found — raise -episodes")
		return
	}
	b := res.Best
	printOutcome(w, b.Design.String(), b.Accuracies, b.Latency, b.EnergyNJ, b.AreaUM2, true)
	fmt.Printf("\n   explored %d feasible co-designs, pruned %d episodes without\n",
		len(res.Explored), res.PrunedEpisodes)
	fmt.Printf("   feasible hardware before training (early pruning, §IV-2)\n")

	if !nas.Feasible {
		fmt.Printf("\nco-exploration met the specs the successive flow missed, keeping\n")
		fmt.Printf("accuracy within %.2f points of the unconstrained networks.\n",
			100*((nas.Accuracies[0]+nas.Accuracies[1])-(b.Accuracies[0]+b.Accuracies[1]))/2)
	}
}

func printOutcome(w workload.Workload, design string, accs []float64, lat int64, e, a float64, ok bool) {
	fmt.Printf("   accelerator %s\n", design)
	for i, t := range w.Tasks {
		fmt.Printf("   %-10s %s = %s\n", t.Dataset.String(), t.Dataset.Metric(), export.Pct(accs[i]))
	}
	fmt.Printf("   latency %s  energy %s  area %s  -> %s\n",
		export.Sci(float64(lat)), export.Sci(e), export.Sci(a), export.Mark(ok))
}
