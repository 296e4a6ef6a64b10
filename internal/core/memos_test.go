package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nasaic/internal/dnn"
	"nasaic/internal/predictor"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

func runWithCacheDir(t *testing.T, w workload.Workload, dir string, episodes int, mutate func(*Config)) (*Result, EvalStats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Episodes = episodes
	cfg.Seed = 7
	cfg.Workers = 4
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Memos = NewMemos(cfg.Cost)
	cfg.Memos.LoadDir(dir)
	x, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if err := cfg.Memos.SaveDir(dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	return res, x.Evaluator().EvalStats()
}

// The warm tier's hard line: a second cold-process run pointed at the same
// cache directory must return bit-identical results while doing (almost) no
// hardware-evaluation or cost-model work — every memoized key is served from
// disk, so only the work counters change.
func TestWarmStartBitIdenticalAndSkipsRecomputation(t *testing.T) {
	episodes := 12
	if testing.Short() {
		episodes = 6
	}
	w := workload.W3()
	dir := t.TempDir()

	coldRes, coldStats := runWithCacheDir(t, w, dir, episodes, nil)
	ref := outcomeFingerprint(coldRes)
	if ref == "" {
		t.Fatal("empty reference fingerprint")
	}
	if coldStats.HWEvals == 0 {
		t.Fatal("cold run reports zero hardware evaluations; test is vacuous")
	}

	// A fresh bundle simulates the second process: nothing shared
	// in-process, only the files under dir.
	warmRes, warmStats := runWithCacheDir(t, w, dir, episodes, nil)
	if got := outcomeFingerprint(warmRes); got != ref {
		t.Errorf("warm run diverged from cold run:\n--- cold ---\n%s--- warm ---\n%s", ref, got)
	}
	if warmStats.HWEvals != 0 {
		t.Errorf("warm run recomputed %d hardware evaluations, want 0 (all %d requests memoized)",
			warmStats.HWEvals, warmStats.HWRequests)
	}
	if warmStats.LayerCostRequests > 0 && warmStats.LayerCostHits != warmStats.LayerCostRequests {
		t.Errorf("warm run layer-cost hits %d of %d requests, want 100%%",
			warmStats.LayerCostHits, warmStats.LayerCostRequests)
	}

	// A third run must also leave the snapshot loadable (save-after-load is
	// a fixpoint, not a corruption amplifier).
	thirdRes, _ := runWithCacheDir(t, w, dir, episodes, nil)
	if got := outcomeFingerprint(thirdRes); got != ref {
		t.Error("third (warm) run diverged")
	}
}

// A changed cost-model calibration must retire the snapshot: the run starts
// cold (recomputes) instead of serving costs from the wrong physics.
func TestWarmTierInvalidatedByCalibrationChange(t *testing.T) {
	episodes := 6
	w := workload.W3()
	dir := t.TempDir()
	if _, st := runWithCacheDir(t, w, dir, episodes, nil); st.HWEvals == 0 {
		t.Fatal("cold run reports zero hardware evaluations")
	}

	_, stats := runWithCacheDir(t, w, dir, episodes, func(cfg *Config) {
		cfg.Cost.EnergyScale *= 1.25
	})
	if stats.HWEvals == 0 {
		t.Error("recalibrated run served stale snapshots: zero hardware evaluations")
	}
}

// Corrupting every snapshot on disk must degrade the next run to a cold
// start — same results, no crash.
func TestWarmTierCorruptFilesDegradeToCold(t *testing.T) {
	episodes := 6
	w := workload.W3()
	dir := t.TempDir()
	coldRes, _ := runWithCacheDir(t, w, dir, episodes, nil)
	ref := outcomeFingerprint(coldRes)

	files, err := filepath.Glob(filepath.Join(dir, "*.cache"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot files written (err=%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res, stats := runWithCacheDir(t, w, dir, episodes, nil)
	if got := outcomeFingerprint(res); got != ref {
		t.Error("run after snapshot corruption diverged from the cold reference")
	}
	if stats.HWEvals == 0 {
		t.Error("corrupt snapshots were served: zero hardware evaluations")
	}
}

// The snapshot files carry the expected naming scheme, so operators can
// recognize (and safely delete) warm-tier state.
func TestWarmTierFileNaming(t *testing.T) {
	w := workload.W3()
	dir := t.TempDir()
	runWithCacheDir(t, w, dir, 6, nil)
	files, err := filepath.Glob(filepath.Join(dir, "*.cache"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range files {
		kinds = append(kinds, filepath.Base(f))
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "layercost-") || !strings.Contains(joined, "hweval-") {
		t.Fatalf("snapshot files %v miss the layercost-/hweval- prefixes", kinds)
	}
}

// Two single-CIFAR workloads that differ only in their specs (Table II's
// Single and Homo. rows) may share one bundle: the specs set the HAP
// deadline and the Feasible flag, so they lead every hardware-cache key, and
// each evaluator must see exactly the metrics a private evaluator computes.
func TestSharedMemosKeyHardwareEntriesBySpecs(t *testing.T) {
	w3 := workload.W3().Specs
	single := workload.Specs{LatencyCycles: w3.LatencyCycles / 2, EnergyNJ: w3.EnergyNJ / 2, AreaUM2: w3.AreaUM2}
	homo := workload.Specs{LatencyCycles: w3.LatencyCycles, EnergyNJ: w3.EnergyNJ / 2, AreaUM2: w3.AreaUM2 / 2}
	cifar := func(specs workload.Specs) workload.Workload {
		return workload.Workload{
			Name:  "cifar",
			Tasks: []workload.TaskSpec{{Name: "cifar", Dataset: predictor.CIFAR10, Space: dnn.CIFARResNetSpace(), Weight: 1}},
			Specs: specs,
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	evaluator := func(w workload.Workload, memos *Memos) *Evaluator {
		c := cfg
		c.Memos = memos
		e, err := NewEvaluator(w, c)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	memos := NewMemos(cfg.Cost)
	sharedSingle, sharedHomo := evaluator(cifar(single), memos), evaluator(cifar(homo), memos)
	privSingle, privHomo := evaluator(cifar(single), nil), evaluator(cifar(homo), nil)

	sp := dnn.CIFARResNetSpace()
	rng := stats.NewRNG(11)
	differ := 0
	for i := 0; i < 40; i++ {
		nets := []*dnn.Network{sp.MustDecode(sp.Random(rng))}
		d := cfg.HW.Random(rng)
		a := mustHWEval(t, sharedSingle, nets, d)
		b := mustHWEval(t, sharedHomo, nets, d)
		wantA := mustHWEval(t, privSingle, nets, d)
		wantB := mustHWEval(t, privHomo, nets, d)
		if !reflect.DeepEqual(a, wantA) {
			t.Fatalf("sample %d: single-spec evaluator got %+v from the shared bundle, private %+v", i, a, wantA)
		}
		if !reflect.DeepEqual(b, wantB) {
			t.Fatalf("sample %d: homo-spec evaluator got %+v from the shared bundle, private %+v", i, b, wantB)
		}
		if !reflect.DeepEqual(wantA, wantB) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two specs never led to different metrics; the test is vacuous")
	}
}

// A bundle caches layer costs and areas of one cost-model calibration, so
// an evaluator calibrated differently must refuse it.
func TestNewEvaluatorRejectsMemosOfOtherCalibration(t *testing.T) {
	cfg := DefaultConfig()
	other := cfg.Cost
	other.EnergyScale *= 2
	cfg.Memos = NewMemos(other)
	if _, err := NewEvaluator(workload.W3(), cfg); err == nil {
		t.Fatal("NewEvaluator accepted a bundle bound to a different maestro.Config")
	}
	cfg.Memos = NewMemos(cfg.Cost)
	if _, err := NewEvaluator(workload.W3(), cfg); err != nil {
		t.Fatalf("NewEvaluator rejected a bundle bound to its own calibration: %v", err)
	}
}
