package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nasaic/internal/export"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden table renderings")

// The Table I / Table II renderings at QuickBudget are golden-pinned: every
// number the benchmark harness prints (architectures, hardware tuples,
// accuracies, latency/energy/area, feasibility marks) must stay bit-identical
// under performance work. The hardware-evaluation cache, the in-batch dedup,
// and the worker count are all designed to be invisible here — a diff in
// these files means reported results changed, which needs an explicit
// `go test ./internal/experiments -run Golden -update` and a review of why.
//
// Everything upstream is deterministic in Budget.Seed, so the goldens are
// stable across runs and across cache modes on the same float hardware.
func testTableGolden(t *testing.T, name string, render func() ([]byte, error)) {
	if testing.Short() {
		t.Skip("QuickBudget regeneration is too slow for -short")
	}
	got, err := render()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden rendering.\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// Table I's rendering and its CSV export come from one regeneration. The
// CSV also pins the per-task architecture tuples, which the rendered table
// omits.
func TestTable1GoldenQuickBudget(t *testing.T) {
	var rows []ApproachResult
	testTableGolden(t, "table1_quickbudget.golden", func() ([]byte, error) {
		var err error
		rows, _, err = Table1(context.Background(), QuickBudget())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		RenderTable1(&buf, rows)
		return buf.Bytes(), nil
	})
	testTableGolden(t, "table1_csv_quickbudget.golden", func() ([]byte, error) {
		header, body := Table1CSV(rows)
		var buf bytes.Buffer
		err := export.CSV(&buf, header, body)
		return buf.Bytes(), err
	})
}

// Fig. 1 pins the comparison baselines on their own: the NAS→ASIC sweep,
// ASIC→HW-NAS's triangle and the Monte Carlo star and square.
func TestFig1GoldenQuickBudget(t *testing.T) {
	testTableGolden(t, "fig1_quickbudget.golden", func() ([]byte, error) {
		d, err := Fig1(context.Background(), QuickBudget())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		RenderFig1(&buf, d)
		return buf.Bytes(), nil
	})
}

func TestTable2GoldenQuickBudget(t *testing.T) {
	testTableGolden(t, "table2_quickbudget.golden", func() ([]byte, error) {
		rows, _, err := Table2(context.Background(), QuickBudget())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		RenderTable2(&buf, rows)
		return buf.Bytes(), nil
	})
}
