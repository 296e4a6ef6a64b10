package experiments

import (
	"context"
	"fmt"
	"io"

	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/export"
	"nasaic/internal/search"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Table2 reproduces Table II: on the homogeneous CIFAR-10 workload W3
// (specs ⟨4e5, 1e9, 4e9⟩), compare
//
//   - NAS — spec-blind architecture search paired with the maximum
//     single accelerator ⟨dla, 4096, 64⟩;
//   - Single Acc. — NASAIC restricted to one sub-accelerator; the network
//     executes twice sequentially, so latency and energy specs are halved;
//   - Homo. Acc. — NASAIC restricted to one sub-accelerator with half the
//     PE/bandwidth/area/energy budget, then instantiated twice;
//   - Hetero. Acc. — full NASAIC on W3 with two sub-accelerators.
//
// The returned stats sum the three NASAIC runs' evaluator work (including
// hardware-evaluation cache effectiveness).
func Table2(ctx context.Context, b Budget) ([]ApproachResult, core.EvalStats, error) {
	w3 := workload.W3()
	sp := w3.Specs
	// One memo bundle for all four approaches (see Table1).
	cfg := b.config()
	defer b.save(cfg)

	var out []ApproachResult
	var stats core.EvalStats

	// -- NAS with maximum hardware ------------------------------------------
	nasRow, err := table2NAS(ctx, w3, b, cfg)
	if err != nil {
		return nil, stats, err
	}
	out = append(out, nasRow)

	// -- Single accelerator --------------------------------------------------
	singleW := singleCIFARWorkload("W3-single", workload.Specs{
		LatencyCycles: sp.LatencyCycles / 2,
		EnergyNJ:      sp.EnergyNJ / 2,
		AreaUM2:       sp.AreaUM2,
	})
	singleCfg := cfg
	singleCfg.HW = singleSubSpace(4096, 64)
	single, singleRes, err := runRestricted(ctx, "Single Acc.", singleW, singleCfg, 1)
	if err != nil {
		return nil, stats, err
	}
	out = append(out, single)
	stats.Add(singleRes.EvalStats)

	// -- Homogeneous accelerators -------------------------------------------
	homoW := singleCIFARWorkload("W3-homo", workload.Specs{
		LatencyCycles: sp.LatencyCycles,
		EnergyNJ:      sp.EnergyNJ / 2,
		AreaUM2:       sp.AreaUM2 / 2,
	})
	homoCfg := cfg
	homoCfg.HW = singleSubSpace(2048, 32)
	homo, homoRes, err := runRestricted(ctx, "Homo. Acc.", homoW, homoCfg, 2)
	if err != nil {
		return nil, stats, err
	}
	out = append(out, homo)
	stats.Add(homoRes.EvalStats)

	// -- Heterogeneous accelerators (full NASAIC) ----------------------------
	x, err := core.New(w3, cfg)
	if err != nil {
		return nil, stats, err
	}
	res, err := x.RunContext(ctx)
	if err != nil {
		return nil, stats, err
	}
	if res.Best == nil {
		return nil, stats, fmt.Errorf("experiments: NASAIC found no feasible W3 solution")
	}
	stats.Add(res.EvalStats)
	out = append(out, approachRow(w3, "Hetero. Acc. (NASAIC)", res.Best))
	return out, stats, nil
}

// table2NAS evaluates the spec-blind NAS row: the best-accuracy architecture
// on the maximum single accelerator, running both W3 task instances.
func table2NAS(ctx context.Context, w3 workload.Workload, b Budget, cfg core.Config) (ApproachResult, error) {
	e, err := core.NewEvaluator(w3, cfg)
	if err != nil {
		return ApproachResult{}, err
	}
	rng := stats.NewRNG(b.Seed ^ 0x7a2)
	t := w3.Tasks[0]
	bestChoices, bestNet, bestAcc := search.NAS(t, b.NASSamples, rng)
	d := maxSingleDesign()
	m, err := e.HWEvalCtx(ctx, []*dnn.Network{bestNet, bestNet}, d)
	if err != nil {
		return ApproachResult{}, err
	}
	return ApproachResult{
		Workload: "W3", Approach: "NAS",
		Hardware: d.Subs[0].String(),
		Rows: []DatasetRow{{
			Dataset: t.Dataset.String(), Metric: t.Dataset.Metric(),
			Arch: t.Space.ValuesString(bestChoices), Accuracy: bestAcc,
		}},
		Latency: m.Latency, EnergyNJ: m.EnergyNJ, AreaUM2: m.AreaUM2, Feasible: m.Feasible,
	}, nil
}

// runRestricted runs NASAIC on a single-task workload with a restricted
// hardware space and reports the result scaled by `copies` accelerator
// instances (Homo. Acc. duplicates the found design).
func runRestricted(ctx context.Context, name string, w workload.Workload, cfg core.Config, copies int) (ApproachResult, *core.Result, error) {
	x, err := core.New(w, cfg)
	if err != nil {
		return ApproachResult{}, nil, err
	}
	res, err := x.RunContext(ctx)
	if err != nil {
		return ApproachResult{}, nil, err
	}
	if res.Best == nil {
		return ApproachResult{}, nil, fmt.Errorf("experiments: %s search found no feasible solution", name)
	}
	ar := approachRow(w, name, res.Best)
	ar.Workload = "W3"
	if copies == 2 {
		ar.Hardware = "2x " + ar.Hardware
		ar.Rows[0].Arch = "2x " + ar.Rows[0].Arch
		ar.EnergyNJ *= 2
		ar.AreaUM2 *= 2
	} else {
		// Single accelerator executes the network twice sequentially.
		ar.Latency *= 2
		ar.EnergyNJ *= 2
	}
	return ar, res, nil
}

// RenderTable2 writes the Table II comparison.
func RenderTable2(w io.Writer, rows []ApproachResult) {
	header := []string{"Approach", "Hardware", "Architecture", "Accuracy", "L /cycles", "E /nJ", "A /um2", "Sat."}
	var cells [][]string
	for _, r := range rows {
		for i, d := range r.Rows {
			line := []string{"", "", d.Arch, export.Pct(d.Accuracy), "", "", "", ""}
			if i == 0 {
				line[0] = r.Approach
				line[1] = r.Hardware
				line[4] = export.Sci(float64(r.Latency))
				line[5] = export.Sci(r.EnergyNJ)
				line[6] = export.Sci(r.AreaUM2)
				line[7] = export.Mark(r.Feasible)
			}
			cells = append(cells, line)
		}
	}
	export.Table(w, header, cells)
}
