package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nasaic/internal/workload"
)

func tinyBudget(seed int64) Budget {
	return Budget{Episodes: 60, MCRuns: 250, NASSamples: 60, HWSamples: 80, Seed: seed}
}

// The Table I shape: NAS→ASIC violates the specs on both workloads; the
// other two approaches satisfy them; and NASAIC's summed task accuracy is
// at most 12 points per task below that of NAS→ASIC's spec-blind networks.
// How NASAIC compares with ASIC→HW-NAS is not asserted.
func TestTable1Shape(t *testing.T) {
	rows, _, err := Table1(context.Background(), tinyBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 approach rows (3 per workload), got %d", len(rows))
	}
	byKey := map[string]ApproachResult{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Approach] = r
	}
	for _, wn := range []string{"W1", "W2"} {
		nas := byKey[wn+"/NAS->ASIC"]
		if nas.Feasible {
			t.Errorf("%s: NAS->ASIC should violate the specs", wn)
		}
		for _, app := range []string{"ASIC->HW-NAS", "NASAIC"} {
			r := byKey[wn+"/"+app]
			if !r.Feasible {
				t.Errorf("%s/%s: expected a spec-satisfying solution", wn, app)
			}
		}
		// NASAIC should not lose much accuracy vs the spec-blind NAS nets.
		nasaic := byKey[wn+"/NASAIC"]
		var nasW, naW float64
		for i := range nas.Rows {
			nasW += nas.Rows[i].Accuracy
			naW += nasaic.Rows[i].Accuracy
		}
		if naW < nasW-0.12*float64(len(nas.Rows)) {
			t.Errorf("%s: NASAIC weighted accuracy dropped too far: %f vs NAS %f", wn, naW, nasW)
		}
	}
}

// The Table II shape: NAS violates; the three NASAIC variants satisfy; the
// heterogeneous design's best network beats the single-accelerator network.
func TestTable2Shape(t *testing.T) {
	rows, _, err := Table2(context.Background(), tinyBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	if rows[0].Approach != "NAS" || rows[0].Feasible {
		t.Errorf("NAS row should violate specs: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if !r.Feasible {
			t.Errorf("%s should satisfy specs", r.Approach)
		}
	}
	nasAcc := rows[0].Rows[0].Accuracy
	for _, r := range rows[1:] {
		if r.Rows[0].Accuracy > nasAcc+0.005 {
			t.Errorf("%s accuracy %.4f should not exceed unconstrained NAS %.4f",
				r.Approach, r.Rows[0].Accuracy, nasAcc)
		}
	}
	// The heterogeneous row reports two networks.
	hetero := rows[3]
	if len(hetero.Rows) != 2 {
		t.Errorf("heterogeneous NASAIC should report two networks, got %d", len(hetero.Rows))
	}
}

func TestFig1Shape(t *testing.T) {
	d, err := Fig1(context.Background(), tinyBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NASASIC) == 0 {
		t.Fatal("no NAS->ASIC points")
	}
	// Fig. 1's core message: every successive NAS→ASIC point violates specs.
	for _, p := range d.NASASIC {
		if p.Feasible {
			t.Errorf("NAS->ASIC point unexpectedly feasible: %+v", p)
			break
		}
	}
	if d.Optimal == nil {
		t.Fatal("Monte Carlo found no feasible point")
	}
	if d.Optimal.Weighted <= 0 || d.Optimal.Weighted > 1 {
		t.Errorf("optimal accuracy %f out of range", d.Optimal.Weighted)
	}
	// The MC optimum cannot be worse than the heuristic square.
	if d.Heuristic != nil && d.Heuristic.Weighted > d.Optimal.Weighted {
		t.Error("heuristic point beats the MC optimum")
	}
	// The NAS accuracy upper-bounds everything feasible.
	if d.Optimal.Weighted > d.NASAcc+0.005 {
		t.Errorf("feasible optimum %.4f should not beat unconstrained NAS %.4f", d.Optimal.Weighted, d.NASAcc)
	}
}

func TestFig6Shape(t *testing.T) {
	for _, w := range []workload.Workload{workload.W3(), workload.W1()} {
		d, err := Fig6(context.Background(), w, tinyBudget(5))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sp := w.Specs
		for _, p := range d.Explored {
			if p.Latency > sp.LatencyCycles || p.EnergyNJ > sp.EnergyNJ || p.AreaUM2 > sp.AreaUM2 {
				t.Errorf("%s: explored point violates specs: %+v", w.Name, p)
				break
			}
		}
		if d.Best.Weighted <= 0 {
			t.Errorf("%s: missing best point", w.Name)
		}
		if len(d.LowerBounds) == 0 {
			t.Errorf("%s: missing lower-bound series", w.Name)
		}
		// Best must beat the smallest-architecture lower bound.
		lower := w.Weighted(d.LowerAccs)
		if d.Best.Weighted <= lower {
			t.Errorf("%s: best weighted %.4f does not beat lower bound %.4f",
				w.Name, d.Best.Weighted, lower)
		}
	}
}

func TestRenderers(t *testing.T) {
	b := tinyBudget(1)
	rows, _, err := Table1(context.Background(), Budget{Episodes: 40, MCRuns: 120, NASSamples: 40, HWSamples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	out := buf.String()
	for _, want := range []string{"NASAIC", "W1", "W2", "CIFAR-10"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 rendering missing %q", want)
		}
	}

	d, err := Fig1(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderFig1(&buf, d)
	if !strings.Contains(buf.String(), "Fig.1") {
		t.Error("fig 1 rendering missing title")
	}

	header, csvRows := Table1CSV(rows)
	if len(header) == 0 || len(csvRows) == 0 {
		t.Error("empty table 1 CSV")
	}
	ph, pr := PointsCSV(d.NASASIC, "nas_asic")
	if len(ph) != 6 || len(pr) != len(d.NASASIC) {
		t.Error("points CSV shape wrong")
	}
}
