package experiments

import (
	"context"
	"fmt"
	"io"

	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/export"
	"nasaic/internal/pareto"
	"nasaic/internal/search"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// MetricPoint is one solution in the (latency, energy, area) space with its
// quality annotation.
type MetricPoint struct {
	Latency  int64
	EnergyNJ float64
	AreaUM2  float64
	Weighted float64
	Feasible bool
}

// hwPoint is the point of hardware metrics m annotated with weighted
// accuracy wgt.
func hwPoint(m core.HWMetrics, wgt float64) MetricPoint {
	return MetricPoint{Latency: m.Latency, EnergyNJ: m.EnergyNJ, AreaUM2: m.AreaUM2, Weighted: wgt, Feasible: m.Feasible}
}

// solutionPoint is the point of an evaluated solution.
func solutionPoint(s *core.Solution) MetricPoint {
	return MetricPoint{Latency: s.Latency, EnergyNJ: s.EnergyNJ, AreaUM2: s.AreaUM2, Weighted: s.Weighted, Feasible: s.Feasible}
}

// Fig1Data holds the four solution families of Fig. 1 for the CIFAR-10
// classification study.
type Fig1Data struct {
	Specs workload.Specs
	// NASASIC are successive NAS→ASIC points (circles): the spec-blind
	// architecture paired with many hardware designs.
	NASASIC []MetricPoint
	// HWNAS is the hardware-aware-NAS-on-fixed-design point (triangle).
	HWNAS MetricPoint
	// Heuristic is the closest-to-spec Monte Carlo point (square).
	Heuristic *MetricPoint
	// Optimal is the best feasible Monte Carlo point (star).
	Optimal *MetricPoint
	// Accuracies for the annotation boxes.
	NASAcc, HWNASAcc, HeuristicAcc, OptimalAcc float64
}

// Fig1Workload is the single-task CIFAR-10 workload of the introduction's
// motivating study, with specs sized for one network (half the W3 budget).
func Fig1Workload() workload.Workload {
	return singleCIFARWorkload("Fig1", workload.Specs{
		LatencyCycles: 2e5, EnergyNJ: 5e8, AreaUM2: 4e9,
	})
}

// Fig1 regenerates the motivating design-space exploration.
func Fig1(ctx context.Context, b Budget) (*Fig1Data, error) {
	w := Fig1Workload()
	// The NAS→ASIC sweep, the HW-NAS baseline and the Monte Carlo search
	// each build their own evaluator over one memo bundle.
	cfg := b.config()
	defer b.save(cfg)
	e, err := core.NewEvaluator(w, cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(b.Seed ^ 0xf191)

	d := &Fig1Data{Specs: w.Specs}

	// Circles: the NAS-chosen architecture across many hardware designs.
	sp := w.Tasks[0].Space
	nasChoices := sp.Largest()
	nasNet := sp.MustDecode(nasChoices)
	accs := e.Accuracies([]*dnn.Network{nasNet})
	d.NASAcc = accs[0]
	for s := 0; s < b.HWSamples; s++ {
		des := cfg.HW.Random(rng)
		m, err := e.HWEvalCtx(ctx, []*dnn.Network{nasNet}, des)
		if err != nil {
			return nil, err
		}
		d.NASASIC = append(d.NASASIC, hwPoint(m, accs[0]))
	}

	// Triangle: hardware-aware NAS on the closest-to-spec fixed design.
	hwnas, err := search.ASICToHWNAS(ctx, w, cfg, b.MCRuns/2, b.NASSamples*3)
	if err != nil {
		return nil, err
	}
	d.HWNAS = solutionPoint(hwnas)
	d.HWNASAcc = hwnas.Weighted

	// Star and square: Monte Carlo co-search.
	mc, err := search.MonteCarlo(ctx, w, cfg, b.MCRuns)
	if err != nil {
		return nil, err
	}
	if mc.BestFeasible != nil {
		p := solutionPoint(mc.BestFeasible)
		d.Optimal = &p
		d.OptimalAcc = mc.BestFeasible.Weighted
	}
	if mc.ClosestToSpec != nil {
		p := solutionPoint(mc.ClosestToSpec)
		d.Heuristic = &p
		d.HeuristicAcc = mc.ClosestToSpec.Weighted
	}
	return d, nil
}

// Fig6Data holds one workload panel of Fig. 6.
type Fig6Data struct {
	Workload workload.Workload
	// Explored are NASAIC's feasible solutions (green diamonds).
	Explored []MetricPoint
	// Best is the highest-weighted-accuracy solution (red star).
	Best     MetricPoint
	BestAccs []float64
	// LowerBounds pair the smallest architectures with sampled designs
	// (blue crosses).
	LowerBounds []MetricPoint
	LowerAccs   []float64
	// ParetoIdx indexes the explored solutions that are non-dominated in
	// (latency, energy, area, −weighted accuracy).
	ParetoIdx []int
	// Stats reports the NASAIC run's evaluator work, including hardware-
	// evaluation cache effectiveness and pruned episodes.
	Stats core.EvalStats
}

// Fig6 regenerates one panel of Fig. 6 for the given workload.
func Fig6(ctx context.Context, w workload.Workload, b Budget) (*Fig6Data, error) {
	cfg := b.config()
	defer b.save(cfg)
	x, err := core.New(w, cfg)
	if err != nil {
		return nil, err
	}
	res, err := x.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, fmt.Errorf("experiments: fig 6 %s: no feasible solution", w.Name)
	}
	d := &Fig6Data{Workload: w, Stats: res.EvalStats}
	var pts []pareto.Point
	for i, s := range res.Explored {
		d.Explored = append(d.Explored, solutionPoint(s))
		pts = append(pts, pareto.Point{
			Values: []float64{float64(s.Latency), s.EnergyNJ, s.AreaUM2, -s.Weighted},
			Tag:    i,
		})
	}
	for _, p := range pareto.Front(pts) {
		d.ParetoIdx = append(d.ParetoIdx, p.Tag)
	}
	d.Best = solutionPoint(res.Best)
	d.BestAccs = res.Best.Accuracies

	// Lower bounds: smallest architecture per task across sampled designs.
	e := x.Evaluator()
	nets := make([]*dnn.Network, len(w.Tasks))
	for i, t := range w.Tasks {
		nets[i] = t.Space.MustDecode(t.Space.Smallest())
	}
	d.LowerAccs = e.Accuracies(nets)
	rng := stats.NewRNG(b.Seed ^ 0xf606)
	n := b.HWSamples / 4
	if n < 30 {
		n = 30
	}
	for s := 0; s < n; s++ {
		des := cfg.HW.Random(rng)
		m, err := e.HWEvalCtx(ctx, nets, des)
		if err != nil {
			return nil, err
		}
		d.LowerBounds = append(d.LowerBounds, hwPoint(m, w.Weighted(d.LowerAccs)))
	}
	return d, nil
}

// RenderFig1 draws the latency-energy projection with the spec corner.
func RenderFig1(wr io.Writer, d *Fig1Data) {
	var pts []export.Point
	for _, p := range d.NASASIC {
		pts = append(pts, export.Point{X: float64(p.Latency), Y: p.EnergyNJ, Series: "o"})
	}
	pts = append(pts, export.Point{X: float64(d.HWNAS.Latency), Y: d.HWNAS.EnergyNJ, Series: "^"})
	if d.Heuristic != nil {
		pts = append(pts, export.Point{X: float64(d.Heuristic.Latency), Y: d.Heuristic.EnergyNJ, Series: "#"})
	}
	if d.Optimal != nil {
		pts = append(pts, export.Point{X: float64(d.Optimal.Latency), Y: d.Optimal.EnergyNJ, Series: "*"})
	}
	pts = append(pts, export.Point{X: float64(d.Specs.LatencyCycles), Y: d.Specs.EnergyNJ, Series: "D"})
	export.Scatter(wr, "Fig.1: NAS/ASIC design space (o=NAS->ASIC ^=HW-NAS #=heuristic *=MC-optimal D=specs)",
		"latency/cycles", "energy/nJ", 72, 20, pts)
	fmt.Fprintf(wr, "NAS->ASIC accuracy: %s  HW-aware NAS: %s  heuristic: %s  MC optimal: %s\n",
		export.Pct(d.NASAcc), export.Pct(d.HWNASAcc), export.Pct(d.HeuristicAcc), export.Pct(d.OptimalAcc))
}

// RenderFig6 draws one Fig. 6 panel (latency-energy projection).
func RenderFig6(wr io.Writer, d *Fig6Data) {
	var pts []export.Point
	for _, p := range d.LowerBounds {
		pts = append(pts, export.Point{X: float64(p.Latency), Y: p.EnergyNJ, Series: "+"})
	}
	for _, p := range d.Explored {
		pts = append(pts, export.Point{X: float64(p.Latency), Y: p.EnergyNJ, Series: "o"})
	}
	sp := d.Workload.Specs
	pts = append(pts,
		export.Point{X: float64(sp.LatencyCycles), Y: sp.EnergyNJ, Series: "D"},
		export.Point{X: float64(d.Best.Latency), Y: d.Best.EnergyNJ, Series: "*"},
	)
	export.Scatter(wr, fmt.Sprintf("Fig.6 %s (o=explored +=lower-bound *=best D=specs)", d.Workload.Name),
		"latency/cycles", "energy/nJ", 72, 20, pts)
	for i, t := range d.Workload.Tasks {
		fmt.Fprintf(wr, "%s best %s: %s (lower bound %s)\n",
			t.Dataset, t.Dataset.Metric(), export.Pct(d.BestAccs[i]), export.Pct(d.LowerAccs[i]))
	}
	fmt.Fprintf(wr, "%d of %d explored solutions are Pareto-optimal in (L, E, A, -accuracy)\n",
		len(d.ParetoIdx), len(d.Explored))
}

// PointsCSV exports metric points for plotting.
func PointsCSV(points []MetricPoint, series string) ([]string, [][]string) {
	header := []string{"series", "latency_cycles", "energy_nj", "area_um2", "weighted", "feasible"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			series,
			fmt.Sprintf("%d", p.Latency),
			fmt.Sprintf("%.6g", p.EnergyNJ),
			fmt.Sprintf("%.6g", p.AreaUM2),
			fmt.Sprintf("%.4f", p.Weighted),
			fmt.Sprintf("%v", p.Feasible),
		})
	}
	return header, rows
}
