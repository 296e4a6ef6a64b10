package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nasaic/internal/accel"
	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
	"nasaic/internal/maestro"
	"nasaic/internal/sched"
	"nasaic/internal/workload"
)

func testEvaluator(t *testing.T, w workload.Workload) *Evaluator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 3
	e, err := NewEvaluator(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustHWEval evaluates d for nets under a background context, failing the
// test on error.
func mustHWEval(t *testing.T, e *Evaluator, nets []*dnn.Network, d accel.Design) HWMetrics {
	t.Helper()
	m, err := e.HWEvalCtx(context.Background(), nets, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func midNetworks(t *testing.T, w workload.Workload) []*dnn.Network {
	t.Helper()
	nets := make([]*dnn.Network, len(w.Tasks))
	for i, task := range w.Tasks {
		c := task.Space.Smallest()
		// Bump every decision one notch toward the middle where possible.
		for j := range c {
			if len(task.Space.Decisions[j].Options) > 2 {
				c[j] = 2
			}
		}
		nets[i] = task.Space.MustDecode(c)
	}
	return nets
}

func TestBoundsAboveSpecs(t *testing.T) {
	for _, w := range []workload.Workload{workload.W1(), workload.W2(), workload.W3()} {
		e := testEvaluator(t, w)
		b := e.Bounds
		if b.Latency <= w.Specs.LatencyCycles {
			t.Errorf("%s: latency bound %d not above spec %d", w.Name, b.Latency, w.Specs.LatencyCycles)
		}
		if b.EnergyNJ <= w.Specs.EnergyNJ {
			t.Errorf("%s: energy bound %g not above spec %g", w.Name, b.EnergyNJ, w.Specs.EnergyNJ)
		}
		if b.AreaUM2 <= w.Specs.AreaUM2 {
			t.Errorf("%s: area bound %g not above spec %g", w.Name, b.AreaUM2, w.Specs.AreaUM2)
		}
	}
}

func TestPenaltyZeroIffSpecsMet(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	within := HWMetrics{
		Latency:    w.Specs.LatencyCycles,
		EnergyNJ:   w.Specs.EnergyNJ,
		AreaUM2:    w.Specs.AreaUM2,
		ResourceOK: true,
	}
	if p := e.Penalty(within); p != 0 {
		t.Errorf("penalty at exactly-spec metrics = %f, want 0", p)
	}
	over := within
	over.Latency++
	if p := e.Penalty(over); p <= 0 {
		t.Error("latency violation must be penalized")
	}
	over = within
	over.EnergyNJ *= 1.01
	if p := e.Penalty(over); p <= 0 {
		t.Error("energy violation must be penalized")
	}
	over = within
	over.AreaUM2 *= 1.01
	if p := e.Penalty(over); p <= 0 {
		t.Error("area violation must be penalized")
	}
	bad := within
	bad.ResourceOK = false
	if p := e.Penalty(bad); p < 1 {
		t.Error("resource violation must add at least 1 to the penalty")
	}
}

func TestPenaltyMonotoneInViolation(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	prev := -1.0
	for mult := 1.0; mult < 3.0; mult += 0.25 {
		m := HWMetrics{
			Latency:    int64(float64(w.Specs.LatencyCycles) * mult),
			EnergyNJ:   w.Specs.EnergyNJ * mult,
			AreaUM2:    w.Specs.AreaUM2 * mult,
			ResourceOK: true,
		}
		p := e.Penalty(m)
		if p < prev {
			t.Errorf("penalty not monotone: %f after %f at mult %f", p, prev, mult)
		}
		prev = p
	}
}

func TestHWEvalFeasibilityConsistent(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	nets := midNetworks(t, w)
	d := accel.NewDesign(
		accel.SubAccel{DF: dataflow.NVDLA, PEs: 2048, BW: 32},
		accel.SubAccel{DF: dataflow.Shidiannao, PEs: 1024, BW: 32},
	)
	m := mustHWEval(t, e, nets, d)
	if !m.ResourceOK {
		t.Fatal("valid design flagged as resource-violating")
	}
	wantFeasible := m.Latency <= w.Specs.LatencyCycles &&
		m.EnergyNJ <= w.Specs.EnergyNJ && m.AreaUM2 <= w.Specs.AreaUM2
	if m.Feasible != wantFeasible {
		t.Errorf("Feasible=%v inconsistent with metrics %+v vs specs %v", m.Feasible, m, w.Specs)
	}
	if m.Feasible && e.Penalty(m) != 0 {
		t.Error("feasible metrics must have zero penalty")
	}
	if len(m.BufDemand) != 2 {
		t.Errorf("buffer demand per sub-accelerator missing: %v", m.BufDemand)
	}
}

func TestHWEvalResourceViolation(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	nets := midNetworks(t, w)
	d := accel.NewDesign(
		accel.SubAccel{DF: dataflow.NVDLA, PEs: 4096, BW: 64},
		accel.SubAccel{DF: dataflow.Shidiannao, PEs: 4096, BW: 64},
	)
	m := mustHWEval(t, e, nets, d)
	if m.ResourceOK || m.Feasible {
		t.Error("over-budget design must be resource-violating and infeasible")
	}
	if p := e.Penalty(m); p < 1 {
		t.Errorf("over-budget penalty %f too small", p)
	}
}

func TestAccuraciesMemoized(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	nets := midNetworks(t, w)
	a1 := e.Accuracies(nets)
	tr1 := e.EvalStats().Trainings
	a2 := e.Accuracies(nets)
	tr2 := e.EvalStats().Trainings
	if tr2 != tr1 {
		t.Errorf("repeated evaluation retrained: %d -> %d trainings", tr1, tr2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Error("memoized accuracy changed")
		}
	}
	if tr1 != len(nets) {
		t.Errorf("trainings = %d, want %d", tr1, len(nets))
	}
}

func TestRewardEquation(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	// Eq. (4): R = weighted − ρ·P with ρ = 10.
	if got := e.Reward(0.9, 0.05); got != 0.9-10*0.05 {
		t.Errorf("Reward = %f, want %f", got, 0.9-10*0.05)
	}
	if got := e.Reward(0.9, 0); got != 0.9 {
		t.Errorf("zero-penalty reward = %f, want 0.9", got)
	}
}

func TestNewEvaluatorRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewEvaluator(workload.Workload{Name: "empty"}, cfg); err == nil {
		t.Error("empty workload accepted")
	}
	bad := cfg
	bad.Episodes = 0
	if _, err := NewEvaluator(workload.W1(), bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestScheduleInspectable(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	nets := midNetworks(t, w)
	d := accel.NewDesign(
		accel.SubAccel{DF: dataflow.NVDLA, PEs: 2048, BW: 32},
		accel.SubAccel{DF: dataflow.Shidiannao, PEs: 1024, BW: 32},
	)
	problem, res, placements, err := e.Schedule(nets, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateTimeline(problem, placements); err != nil {
		t.Fatalf("invalid schedule timeline: %v", err)
	}
	// The schedule's makespan must agree with HWEvalCtx's latency.
	m := mustHWEval(t, e, nets, d)
	if res.Makespan != m.Latency {
		t.Errorf("Schedule makespan %d != HWEvalCtx latency %d", res.Makespan, m.Latency)
	}
	// One chain per network, every compute layer placed.
	wantLayers := 0
	for _, n := range nets {
		wantLayers += len(n.ComputeLayers())
	}
	if len(placements) != wantLayers {
		t.Errorf("placed %d layers, want %d", len(placements), wantLayers)
	}
	// Invalid designs are rejected, not scheduled.
	bad := accel.NewDesign(accel.SubAccel{DF: dataflow.NVDLA, PEs: 9999, BW: 64})
	if _, _, _, err := e.Schedule(nets, bad); err == nil {
		t.Error("resource-violating design scheduled")
	}
}

// The heterogeneity claim at mapper granularity: on a mixed workload with a
// heterogeneous design, the HAP schedule actually uses both sub-accelerators.
func TestScheduleUsesHeterogeneousSubAccelerators(t *testing.T) {
	w := workload.W1()
	e := testEvaluator(t, w)
	nets := []*dnn.Network{
		w.Tasks[0].Space.MustDecode([]int{2, 4, 2, 5, 2, 5, 2}), // big ResNet
		w.Tasks[1].Space.MustDecode([]int{4, 2, 2, 2, 2, 2}),    // big U-Net
	}
	d := accel.NewDesign(
		accel.SubAccel{DF: dataflow.NVDLA, PEs: 2112, BW: 48},
		accel.SubAccel{DF: dataflow.Shidiannao, PEs: 1984, BW: 16},
	)
	_, _, placements, err := e.Schedule(nets, d)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, pl := range placements {
		used[pl.Accel] = true
	}
	if len(used) != 2 {
		t.Errorf("heterogeneous design uses %d sub-accelerators, want 2", len(used))
	}
}

// referenceHWEval is the memo-free mapping-and-scheduling path: every
// cost-model query runs the MAESTRO model directly and the HAP instance is
// solved from scratch. It also returns the memo key of every query, in
// order, so callers can predict the memo's hits.
func referenceHWEval(t *testing.T, e *Evaluator, nets []*dnn.Network, d accel.Design) (HWMetrics, []maestro.CostKey) {
	t.Helper()
	active := d.Active()
	p := sched.Problem{NumAccels: len(active), Deadline: e.W.Specs.LatencyCycles}
	var keys []maestro.CostKey
	for ni, n := range nets {
		ch := sched.Chain{Name: fmt.Sprintf("net%d", ni)}
		for _, l := range n.ComputeLayers() {
			sl := sched.Layer{Name: l.Name, Options: make([]sched.Option, len(active))}
			for ai, di := range active {
				sub := d.Subs[di]
				lc := e.Cfg.Cost.LayerCost(l, sub.DF, sub.PEs, sub.BW)
				keys = append(keys, maestro.NewCostKey(l, sub.DF, sub.PEs, sub.BW))
				sl.Options[ai] = sched.Option{Cycles: lc.Cycles, EnergyNJ: lc.EnergyNJ, BufferBytes: lc.BufferBytes}
			}
			ch.Layers = append(ch.Layers, sl)
		}
		p.Chains = append(p.Chains, ch)
	}
	_, res, err := sched.HAP(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, len(d.Subs))
	for ai, di := range active {
		buf[di] = res.BufferDemand[ai]
	}
	return HWMetrics{
		Latency:   res.Makespan,
		EnergyNJ:  res.EnergyNJ,
		AreaUM2:   d.Area(e.Cfg.Cost, buf),
		BufDemand: buf,
		Assign:    res.Assign,
	}, keys
}

// TestLayerCostMemoBitIdentical: the per-layer cost memo must not change any
// hardware metric — it memoizes a pure function — and its counters must see
// every cost-model query and serve at least every repeat of a sub-accelerator
// config across designs.
func TestLayerCostMemoBitIdentical(t *testing.T) {
	w := workload.W1()
	nets := midNetworks(t, w)
	e := testEvaluator(t, w)

	designs := []accel.Design{
		accel.NewDesign(
			accel.SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32},
			accel.SubAccel{DF: dataflow.Shidiannao, PEs: 512, BW: 16}),
		// Same sub-accelerator configs in a different pairing: every
		// cost-model query is a repeat for the memo.
		accel.NewDesign(
			accel.SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32},
			accel.SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
		accel.NewDesign(
			accel.SubAccel{DF: dataflow.Shidiannao, PEs: 512, BW: 16},
			accel.SubAccel{DF: dataflow.RowStationary, PEs: 256, BW: 8}),
	}
	seen := map[maestro.CostKey]bool{}
	for i, d := range designs {
		want, keys := referenceHWEval(t, e, nets, d)
		repeats := 0
		for _, k := range keys {
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}

		before := e.EvalStats()
		got := mustHWEval(t, e, nets, d)
		after := e.EvalStats()
		if got.Latency != want.Latency || got.EnergyNJ != want.EnergyNJ || got.AreaUM2 != want.AreaUM2 {
			t.Fatalf("design %d: memoized metrics (%d, %g, %g) != reference (%d, %g, %g)",
				i, got.Latency, got.EnergyNJ, got.AreaUM2, want.Latency, want.EnergyNJ, want.AreaUM2)
		}
		if !reflect.DeepEqual(got.BufDemand, want.BufDemand) || !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Fatalf("design %d: memoized buffers/assignment differ from the reference", i)
		}
		reqs := after.LayerCostRequests - before.LayerCostRequests
		hits := after.LayerCostHits - before.LayerCostHits
		if reqs != len(keys) {
			t.Errorf("design %d: memo saw %d queries, reference made %d", i, reqs, len(keys))
		}
		if hits < repeats || hits > reqs {
			t.Errorf("design %d: memo hits %d, want between %d repeats and %d queries", i, hits, repeats, reqs)
		}
	}
	if s := e.EvalStats(); s.LayerCostHitPct() <= 0 {
		t.Errorf("LayerCostHitPct = %f, want > 0", s.LayerCostHitPct())
	}
}
