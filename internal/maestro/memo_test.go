package maestro

import (
	"sync"
	"sync/atomic"
	"testing"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

func memoLayer() dnn.Layer {
	return dnn.Layer{Name: "c1", Op: dnn.Conv, K: 64, C: 32, R: 3, S: 3, X: 16, Y: 16, Stride: 1}
}

// memoLen counts the memo's entries.
func memoLen(cm *CostMemo) int {
	n := 0
	for range cm.Entries() {
		n++
	}
	return n
}

func TestCostMemoServesBitIdenticalResults(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	l := memoLayer()

	direct := cfg.LayerCost(l, dataflow.NVDLA, 512, 32)
	first, hit := cm.LayerCost(l, dataflow.NVDLA, 512, 32)
	if hit {
		t.Error("first query reported a hit")
	}
	second, hit := cm.LayerCost(l, dataflow.NVDLA, 512, 32)
	if !hit {
		t.Error("second query missed")
	}
	if first != direct || second != direct {
		t.Errorf("memoized cost diverged: direct %+v, first %+v, second %+v", direct, first, second)
	}
	if n := memoLen(cm); n != 1 {
		t.Errorf("%d entries, want 1", n)
	}
	// A renamed layer is the same computation (the key clears the name).
	renamed := l
	renamed.Name = "other"
	if _, hit := cm.LayerCost(renamed, dataflow.NVDLA, 512, 32); !hit {
		t.Error("renamed layer should hit the memo")
	}
	// Different resources are different entries.
	if _, hit := cm.LayerCost(l, dataflow.NVDLA, 1024, 32); hit {
		t.Error("different PE count must not hit")
	}
	if n := memoLen(cm); n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

func TestCostMemoConcurrentAccess(t *testing.T) {
	cm := NewCostMemo(DefaultConfig())
	l := memoLayer()
	want, _ := cm.LayerCost(l, dataflow.NVDLA, 512, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _ := cm.LayerCost(l, dataflow.NVDLA, 512, 32)
				if got != want {
					t.Errorf("worker %d saw diverging cost", w)
					return
				}
				cm.LayerCost(l, dataflow.RowStationary, 128+i%4*128, 8)
			}
		}(w)
	}
	wg.Wait()
}

// Many goroutines filling overlapping keys must leave exactly one entry per
// distinct key, exactly one miss per distinct key, and every value equal to
// the direct model.
func TestCostMemoConcurrentFillIsExact(t *testing.T) {
	cfg := DefaultConfig()
	cm := NewCostMemo(cfg)
	type query struct {
		l         dnn.Layer
		style     dataflow.Style
		pes, bwGB int
	}
	var qs []query
	l := memoLayer()
	for k := 8; k <= 64; k += 8 {
		l.K = k
		for _, st := range dataflow.AllStyles {
			for _, pe := range []int{64, 128, 256, 512} {
				qs = append(qs, query{l, st, pe, 8 * (1 + pe%3)})
			}
		}
	}
	const workers = 16
	var wg sync.WaitGroup
	var misses atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range qs {
				q := qs[(i*7+w*13)%len(qs)] // each worker walks every key, from its own start
				got, hit := cm.LayerCost(q.l, q.style, q.pes, q.bwGB)
				if !hit {
					misses.Add(1)
				}
				if got != cfg.LayerCost(q.l, q.style, q.pes, q.bwGB) {
					t.Errorf("worker %d: memo value diverged from the model for %+v", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := memoLen(cm); got != len(qs) {
		t.Fatalf("%d entries, want %d distinct keys", got, len(qs))
	}
	// Each distinct key runs the model once, however the workers raced.
	if got := misses.Load(); got != int64(len(qs)) {
		t.Fatalf("%d misses across %d workers, want exactly one per distinct key (%d)", got, workers, len(qs))
	}
	for _, q := range qs {
		got, hit := cm.LayerCost(q.l, q.style, q.pes, q.bwGB)
		if !hit || got != cfg.LayerCost(q.l, q.style, q.pes, q.bwGB) {
			t.Fatalf("%+v: hit %v, value %+v, want a hit on the model's value", q, hit, got)
		}
	}
}

// The memo's packed key round-trips every field of a CostKey and refuses a
// field it cannot hold.
func TestMemoKeyRoundTrip(t *testing.T) {
	l := memoLayer()
	want := NewCostKey(l, dataflow.RowStationary, 4096, 64)
	if got := newMemoKey(l, dataflow.RowStationary, 4096, 64).costKey(); got != want {
		t.Fatalf("round trip gave %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a field outside int32 did not panic")
		}
	}()
	l.X = 1 << 40
	newMemoKey(l, dataflow.NVDLA, 1, 1)
}
