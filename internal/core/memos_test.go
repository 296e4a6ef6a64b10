package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nasaic/internal/cachefile"
	"nasaic/internal/dnn"
	"nasaic/internal/evalcache"
	"nasaic/internal/maestro"
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
	// Each calibration names its own files, so both snapshots coexist.
	if files, _ := filepath.Glob(filepath.Join(dir, "*.cache")); len(files) != 4 {
		t.Errorf("cache directory holds %v, want two files per calibration", files)
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

// boundsMemos returns a bundle warmed by the bound sampling of one
// evaluator per workload, in order: both memoized tiers, filled
// sequentially and so deterministically in seed.
func boundsMemos(t *testing.T, seed int64, ws ...workload.Workload) *Memos {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Memos = NewMemos(cfg.Cost)
	for _, w := range ws {
		if _, err := NewEvaluator(w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return cfg.Memos
}

// memoEntries lists both tiers' entries in snapshot order.
func memoEntries(m *Memos) ([]memoEntry, []evalcache.Entry[HWMetrics]) {
	var layer []memoEntry
	for k, c := range m.layer.Entries() {
		layer = append(layer, memoEntry{k, c})
	}
	return layer, m.hw.Entries()
}

// snapshotFiles returns the bytes of the two snapshot files under dir.
func snapshotFiles(t *testing.T, m *Memos, dir string) (layer, hw []byte) {
	t.Helper()
	ls, hs := m.snapshots(dir)
	var err error
	if layer, err = os.ReadFile(ls.path); err != nil {
		t.Fatal(err)
	}
	if hw, err = os.ReadFile(hs.path); err != nil {
		t.Fatal(err)
	}
	return layer, hw
}

// The snapshot bytes of a fixed fill are pinned: gob writes type and field
// names into the file, so renaming a snapshot type or field, or changing
// the envelope, would otherwise silently turn existing cache directories
// cold. A deliberate format change bumps cachefile.Version and these
// digests together.
func TestSnapshotBytesArePinned(t *testing.T) {
	m := boundsMemos(t, 7, workload.W3())
	dir := t.TempDir()
	if err := m.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	layer, hw := snapshotFiles(t, m, dir)
	for _, f := range []struct {
		name string
		data []byte
		want string
	}{
		{"layercost", layer, "54f9403acd514da1b9f5f021db50df132ad675e07edfe3f5a7f77015f69aa74a"},
		{"hweval", hw, "bd9a62a1b3c5d611fe59d68efa639d197a3e2437503465c21bedfca1ce970a4b"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(f.data)); got != f.want {
			t.Errorf("%s snapshot (%d bytes) has sha256 %s, want %s", f.name, len(f.data), got, f.want)
		}
	}
}

// Save → load restores every entry of both tiers bit for bit, and saving
// the reloaded bundle writes the same bytes: the layer-cost file is sorted
// by key, and replaying the hardware entries rebuilds each shard's LRU
// order.
func TestMemosSaveLoadRoundTrip(t *testing.T) {
	src := boundsMemos(t, 7, workload.W3())
	dir, again := t.TempDir(), t.TempDir()
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	dst := NewMemos(src.cost)
	dst.LoadDir(dir)
	if err := dst.SaveDir(again); err != nil {
		t.Fatal(err)
	}
	wantLayer, wantHW := memoEntries(src)
	gotLayer, gotHW := memoEntries(dst)
	l1, h1 := snapshotFiles(t, src, dir)
	l2, h2 := snapshotFiles(t, dst, again)
	for _, tier := range []struct {
		name        string
		want, got   any
		n, gotN     int
		first, next []byte
	}{
		{"layercost", wantLayer, gotLayer, len(wantLayer), len(gotLayer), l1, l2},
		{"hweval", wantHW, gotHW, len(wantHW), len(gotHW), h1, h2},
	} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.n == 0 {
				t.Fatal("bound sampling filled an empty tier; the test is vacuous")
			}
			if !reflect.DeepEqual(tier.got, tier.want) {
				t.Errorf("reloaded %s tier differs: %d entries, want %d", tier.name, tier.gotN, tier.n)
			}
			if !bytes.Equal(tier.first, tier.next) {
				t.Errorf("save → load → save changed the %s snapshot's bytes", tier.name)
			}
		})
	}
}

// Each damaged or mismatched file loads nothing from itself and leaves the
// other file's load intact.
func TestMemosLoadDamagedFile(t *testing.T) {
	src := boundsMemos(t, 7, workload.W3())
	good := t.TempDir()
	if err := src.SaveDir(good); err != nil {
		t.Fatal(err)
	}
	wantLayer, wantHW := memoEntries(src)
	other := src.cost
	other.EnergyScale *= 1.0000001
	layerFile, hwFile := src.snapshots(good)

	// reencode rewrites a file's envelope with one field changed.
	reencode := func(kind, key string, version uint32) func([]byte) []byte {
		return func(data []byte) []byte {
			_, _, payload, err := cachefile.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			b := cachefile.Encode(kind, key, payload)
			binary.BigEndian.PutUint32(b[8:12], version)
			body := b[:len(b)-8]
			return binary.BigEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
		}
	}
	for _, f := range []struct {
		name      string
		s         snapshot
		otherKind string
	}{
		{"layercost", layerFile, hwFile.kind},
		{"hweval", hwFile, layerFile.kind},
	} {
		modes := []struct {
			name   string
			damage func([]byte) []byte // nil removes the file
		}{
			{"missing", nil},
			{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
			{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
			{"other kind", reencode(f.otherKind, f.s.key, cachefile.Version)},
			{"other version", reencode(f.s.kind, f.s.key, cachefile.Version+1)},
			{"other calibration", reencode(f.s.kind, other.Fingerprint(), cachefile.Version)},
			{"undecodable", func([]byte) []byte { return cachefile.Encode(f.s.kind, f.s.key, []byte("not gob")) }},
		}
		t.Run(f.name, func(t *testing.T) {
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					dir := t.TempDir()
					for _, s := range []snapshot{layerFile, hwFile} {
						data, err := os.ReadFile(s.path)
						if err != nil {
							t.Fatal(err)
						}
						if s == f.s {
							if mode.damage == nil {
								continue
							}
							data = mode.damage(data)
						}
						if err := os.WriteFile(filepath.Join(dir, filepath.Base(s.path)), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					m := NewMemos(src.cost)
					m.LoadDir(dir)
					gotLayer, gotHW := memoEntries(m)
					damagedLayer := f.s == layerFile
					if damagedLayer && len(gotLayer) != 0 || !damagedLayer && len(gotHW) != 0 {
						t.Errorf("the damaged %s file loaded %d layer-cost and %d hardware entries", f.name, len(gotLayer), len(gotHW))
					}
					if !damagedLayer && !reflect.DeepEqual(gotLayer, wantLayer) {
						t.Errorf("the intact layer-cost file loaded %d entries, want %d", len(gotLayer), len(wantLayer))
					}
					if damagedLayer && !reflect.DeepEqual(gotHW, wantHW) {
						t.Errorf("the intact hardware file loaded %d entries, want %d", len(gotHW), len(wantHW))
					}
				})
			}
		})
	}
}

// Loading into a warm bundle keeps every resident entry with its value and
// adds the file's other entries.
func TestMemosLoadIntoWarmBundle(t *testing.T) {
	dir := t.TempDir()
	if err := boundsMemos(t, 7, workload.W3()).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	fromFile := NewMemos(DefaultConfig().Cost)
	fromFile.LoadDir(dir)
	warm := boundsMemos(t, 3, workload.W1())
	beforeLayer, beforeHW := memoEntries(warm)
	warm.LoadDir(dir)
	afterLayer, afterHW := memoEntries(warm)

	fileLayer, fileHW := memoEntries(fromFile)
	wantLayer := map[maestro.CostKey]maestro.LayerCost{}
	for _, e := range append(beforeLayer, fileLayer...) {
		wantLayer[e.Key] = e.Cost
	}
	gotLayer := map[maestro.CostKey]maestro.LayerCost{}
	for _, e := range afterLayer {
		gotLayer[e.Key] = e.Cost
	}
	if len(wantLayer) == len(beforeLayer) || len(wantLayer) == len(fileLayer) {
		t.Fatal("the file and the warm bundle hold nested layer-cost key sets; the test is vacuous")
	}
	if !reflect.DeepEqual(gotLayer, wantLayer) || len(afterLayer) != len(gotLayer) {
		t.Errorf("layer-cost memo after the load: %d entries, want the union's %d", len(afterLayer), len(wantLayer))
	}
	wantHW := map[string]HWMetrics{}
	for _, e := range append(beforeHW, fileHW...) {
		wantHW[e.Key] = e.Val
	}
	gotHW := map[string]HWMetrics{}
	for _, e := range afterHW {
		gotHW[e.Key] = e.Val
	}
	if !reflect.DeepEqual(gotHW, wantHW) || len(afterHW) != len(gotHW) {
		t.Errorf("hardware cache after the load: %d entries, want the union's %d", len(afterHW), len(wantHW))
	}
}

// Equal layer-cost memos filled in different orders save equal bytes.
func TestLayerSnapshotIndependentOfFillOrder(t *testing.T) {
	save := func(m *Memos) []byte {
		dir := t.TempDir()
		if err := m.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		layer, _ := snapshotFiles(t, m, dir)
		return layer
	}
	w1, w3 := workload.W1(), workload.W3()
	if !bytes.Equal(save(boundsMemos(t, 7, w3, w1)), save(boundsMemos(t, 7, w1, w3))) {
		t.Fatal("equal layer-cost memos filled in different orders saved different bytes")
	}
}
