package maestro

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nasaic/internal/cachefile"
	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

// fillMemo runs a grid of layer-cost queries so the memo holds a known set.
func fillMemo(cm *CostMemo) []dnn.Layer {
	layers := []dnn.Layer{
		{Name: "c1", Op: dnn.Conv, K: 64, C: 32, R: 3, S: 3, X: 16, Y: 16, Stride: 1},
		{Name: "c2", Op: dnn.Conv, K: 128, C: 64, R: 3, S: 3, X: 8, Y: 8, Stride: 1},
		{Name: "fc", Op: dnn.FC, K: 10, C: 256, R: 1, S: 1, X: 1, Y: 1, Stride: 1},
	}
	for _, l := range layers {
		for _, pe := range []int{256, 512, 1024} {
			for _, bw := range []int{16, 32} {
				cm.LayerCost(l, dataflow.NVDLA, pe, bw)
				cm.LayerCost(l, dataflow.Shidiannao, pe, bw)
			}
		}
	}
	return layers
}

func TestMemoSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	layers := fillMemo(cm)
	dir := t.TempDir()
	path := cm.CacheFile(dir)

	if err := cm.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	warm := NewCostMemo(cfg)
	n, err := warm.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != cm.Size() {
		t.Fatalf("loaded %d entries, saved memo holds %d", n, cm.Size())
	}
	if warm.Size() != cm.Size() {
		t.Fatalf("warm Size = %d, want %d", warm.Size(), cm.Size())
	}
	// Every query the cold memo computed must now hit, bit-identically.
	for _, l := range layers {
		for _, pe := range []int{256, 512, 1024} {
			for _, bw := range []int{16, 32} {
				for _, df := range []dataflow.Style{dataflow.NVDLA, dataflow.Shidiannao} {
					want, _ := cm.LayerCost(l, df, pe, bw)
					got, hit := warm.LayerCost(l, df, pe, bw)
					if !hit {
						t.Fatalf("warm memo missed %s/%v/%d/%d", l.Name, df, pe, bw)
					}
					if got != want {
						t.Fatalf("reloaded cost diverged for %s/%v/%d/%d: %+v != %+v",
							l.Name, df, pe, bw, got, want)
					}
				}
			}
		}
	}

	// Save → load → save must round-trip to the same entry set (sync.Map
	// iteration order varies, so compare through a third load, not bytes).
	path2 := filepath.Join(dir, "again.cache")
	if err := warm.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	third := NewCostMemo(cfg)
	n2, err := third.LoadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n || third.Size() != warm.Size() {
		t.Fatalf("second round trip: loaded %d (size %d), want %d (size %d)",
			n2, third.Size(), n, warm.Size())
	}
}

// A memo bound to a different calibration must refuse the file: a persisted
// cost is only valid under the exact Config that computed it.
func TestMemoLoadRejectsDifferentCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	fillMemo(cm)
	dir := t.TempDir()
	path := cm.CacheFile(dir)
	if err := cm.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.EnergyScale *= 1.0000001 // any constant differing retires the file
	om := NewCostMemo(other)
	n, err := om.LoadFile(path)
	if !errors.Is(err, cachefile.ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
	if n != 0 || om.Size() != 0 {
		t.Fatalf("cold start violated: n=%d size=%d", n, om.Size())
	}
	// Differently calibrated memos must also name different files, so both
	// snapshots coexist in one cache directory.
	if cm.CacheFile(dir) == om.CacheFile(dir) {
		t.Fatal("different calibrations map to the same cache file")
	}
}

func TestMemoLoadDamagedFileIsCold(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	fillMemo(cm)
	dir := t.TempDir()
	path := cm.CacheFile(dir)
	if err := cm.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		data   []byte
		target error
	}{
		{"truncated", good[:len(good)-7], cachefile.ErrCorrupt},
		{"flipped byte", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/3] ^= 0x01
			return b
		}(), nil},
		{"gob garbage", cachefile.Encode(MemoKind, cfg.Fingerprint(), []byte{0xff, 0x00, 0x13}), cachefile.ErrCorrupt},
		{"wrong kind", cachefile.Encode("hweval", cfg.Fingerprint(), nil), cachefile.ErrKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "bad-"+tc.name+".cache")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			m := NewCostMemo(cfg)
			n, err := m.LoadFile(p)
			if err == nil {
				t.Fatal("damaged file loaded without error")
			}
			if tc.target != nil && !errors.Is(err, tc.target) {
				t.Fatalf("err = %v, want %v", err, tc.target)
			}
			if n != 0 || m.Size() != 0 {
				t.Fatalf("cold start violated: n=%d size=%d", n, m.Size())
			}
			// Still fully usable after the failed load.
			if _, hit := m.LayerCost(memoLayer(), dataflow.NVDLA, 512, 32); hit {
				t.Fatal("empty memo reported a hit")
			}
		})
	}
}

// The O(1) Size counter must match a full Range scan, including under
// concurrent fills racing on the same keys and a load into a warm memo.
func TestSizeCounterMatchesScan(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := memoLayer()
			for i := 0; i < 40; i++ {
				l.K = 16 + i%20 // deliberate key collisions across goroutines
				cm.LayerCost(l, dataflow.NVDLA, 256+64*(i%3), 16)
			}
		}(g)
	}
	wg.Wait()
	if got, want := cm.Size(), cm.sizeScan(); got != want {
		t.Fatalf("Size() = %d, scan = %d after concurrent fills", got, want)
	}

	dir := t.TempDir()
	path := cm.CacheFile(dir)
	if err := cm.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Loading a snapshot over a partially warm memo must not double-count.
	half := NewCostMemo(cfg)
	l := memoLayer()
	for i := 0; i < 10; i++ {
		l.K = 16 + i
		half.LayerCost(l, dataflow.NVDLA, 256, 16)
	}
	if _, err := half.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got, want := half.Size(), half.sizeScan(); got != want {
		t.Fatalf("Size() = %d, scan = %d after overlapping load", got, want)
	}
}

// Two memos holding the same entries, filled in different orders, must save
// byte-equal snapshots.
func TestMemoSaveIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	type query struct {
		l     dnn.Layer
		style dataflow.Style
		pes   int
		bw    int
	}
	var qs []query
	for _, l := range fillMemo(NewCostMemo(cfg)) {
		for _, pe := range []int{64, 256, 1024} {
			for _, st := range dataflow.AllStyles {
				qs = append(qs, query{l, st, pe, 16 + pe/64})
			}
		}
	}
	fwd, rev := NewCostMemo(cfg), NewCostMemo(cfg)
	for i := range qs {
		q, r := qs[i], qs[len(qs)-1-i]
		fwd.LayerCost(q.l, q.style, q.pes, q.bw)
		rev.LayerCost(r.l, r.style, r.pes, r.bw)
	}
	dir := t.TempDir()
	var files [2][]byte
	for i, cm := range []*CostMemo{fwd, rev} {
		path := filepath.Join(dir, fmt.Sprintf("memo%d", i))
		if err := cm.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if fwd.Size() != len(qs) || rev.Size() != len(qs) {
		t.Fatalf("sizes %d and %d, want %d", fwd.Size(), rev.Size(), len(qs))
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("equal memos filled in different orders saved different bytes")
	}
}
