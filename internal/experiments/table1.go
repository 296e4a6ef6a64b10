package experiments

import (
	"context"
	"fmt"
	"io"

	"nasaic/internal/core"
	"nasaic/internal/export"
	"nasaic/internal/search"
	"nasaic/internal/workload"
)

// Table1 reproduces Table I: on W1 and W2, compare successive NAS→ASIC,
// ASIC→HW-NAS, and NASAIC under the unified design specs. The returned
// stats sum the NASAIC runs' evaluator work (including hardware-evaluation
// cache effectiveness) across both workloads.
func Table1(ctx context.Context, b Budget) ([]ApproachResult, core.EvalStats, error) {
	var out []ApproachResult
	var stats core.EvalStats
	// One memo bundle spans both workloads and every approach: the
	// accuracy key includes the dataset and the hardware key the specs, so
	// cross-workload sharing is sound.
	cfg := b.config()
	defer b.save(cfg)
	for _, w := range []workload.Workload{workload.W1(), workload.W2()} {
		rows, st, err := table1Workload(ctx, w, b, cfg)
		if err != nil {
			return nil, stats, fmt.Errorf("experiments: table 1 on %s: %w", w.Name, err)
		}
		out = append(out, rows...)
		stats.Add(st.EvalStats)
	}
	return out, stats, nil
}

func table1Workload(ctx context.Context, w workload.Workload, b Budget, cfg core.Config) ([]ApproachResult, *core.Result, error) {
	nas, err := search.NASToASIC(ctx, w, cfg, b.NASSamples, b.HWSamples)
	if err != nil {
		return nil, nil, err
	}
	hwnas, err := search.ASICToHWNAS(ctx, w, cfg, b.MCRuns, b.NASSamples*3)
	if err != nil {
		return nil, nil, err
	}
	x, err := core.New(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := x.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	if res.Best == nil {
		return nil, nil, fmt.Errorf("NASAIC found no feasible solution in %d episodes", cfg.Episodes)
	}

	fromCandidate := func(name string, c search.Candidate) ApproachResult {
		ar := ApproachResult{
			Workload: w.Name, Approach: name, Hardware: c.Design.String(),
			Latency: c.Latency, EnergyNJ: c.EnergyNJ, AreaUM2: c.AreaUM2, Feasible: c.Feasible,
		}
		for i, t := range w.Tasks {
			ar.Rows = append(ar.Rows, DatasetRow{
				Dataset:  t.Dataset.String(),
				Metric:   t.Dataset.Metric(),
				Arch:     archString(t.Space, c.Choices[i]),
				Accuracy: c.Accuracies[i],
			})
		}
		return ar
	}

	nasaicRow := ApproachResult{
		Workload: w.Name, Approach: "NASAIC", Hardware: res.Best.Design.String(),
		Latency: res.Best.Latency, EnergyNJ: res.Best.EnergyNJ,
		AreaUM2: res.Best.AreaUM2, Feasible: res.Best.Feasible,
	}
	for i, t := range w.Tasks {
		nasaicRow.Rows = append(nasaicRow.Rows, DatasetRow{
			Dataset:  t.Dataset.String(),
			Metric:   t.Dataset.Metric(),
			Arch:     archString(t.Space, res.Best.ArchChoices[i]),
			Accuracy: res.Best.Accuracies[i],
		})
	}

	return []ApproachResult{
		fromCandidate("NAS->ASIC", nas),
		fromCandidate("ASIC->HW-NAS", hwnas),
		nasaicRow,
	}, res, nil
}

// RenderTable1 writes the Table I comparison in the paper's layout.
func RenderTable1(w io.Writer, rows []ApproachResult) {
	header := []string{"Work.", "Approach", "Hardware", "Dataset", "Accuracy", "L /cycles", "E /nJ", "A /um2", "Specs"}
	var cells [][]string
	for _, r := range rows {
		for i, d := range r.Rows {
			line := []string{"", "", "", d.Dataset, export.Pct(d.Accuracy), "", "", "", ""}
			if i == 0 {
				line[0] = r.Workload
				line[1] = r.Approach
				line[2] = r.Hardware
				line[5] = export.Sci(float64(r.Latency))
				line[6] = export.Sci(r.EnergyNJ)
				line[7] = export.Sci(r.AreaUM2)
				line[8] = export.Mark(r.Feasible)
			}
			cells = append(cells, line)
		}
	}
	export.Table(w, header, cells)
}

// Table1CSV returns header and rows for machine-readable export.
func Table1CSV(rows []ApproachResult) ([]string, [][]string) {
	header := []string{"workload", "approach", "hardware", "dataset", "arch", "accuracy", "latency_cycles", "energy_nj", "area_um2", "feasible"}
	var out [][]string
	for _, r := range rows {
		for _, d := range r.Rows {
			out = append(out, []string{
				r.Workload, r.Approach, r.Hardware, d.Dataset, d.Arch,
				fmt.Sprintf("%.4f", d.Accuracy),
				fmt.Sprintf("%d", r.Latency),
				fmt.Sprintf("%.6g", r.EnergyNJ),
				fmt.Sprintf("%.6g", r.AreaUM2),
				fmt.Sprintf("%v", r.Feasible),
			})
		}
	}
	return header, out
}
