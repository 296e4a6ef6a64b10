package maestro

import (
	"sync"
	"testing"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

func memoLayer() dnn.Layer {
	return dnn.Layer{Name: "c1", Op: dnn.Conv, K: 64, C: 32, R: 3, S: 3, X: 16, Y: 16, Stride: 1}
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
	if cm.Size() != 1 {
		t.Errorf("Size = %d, want 1", cm.Size())
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
	if cm.Size() != 2 {
		t.Errorf("Size = %d, want 2", cm.Size())
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
