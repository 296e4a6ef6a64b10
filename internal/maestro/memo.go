package maestro

import (
	"sync"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
	"nasaic/internal/stats"
)

// CostMemo memoizes LayerCost for one cost-model configuration. LayerCost is
// a pure function of ⟨layer shape, dataflow, PEs, BW⟩ given the
// configuration, so memoized results are bit-identical to recomputation. A
// sync.Map fits the access pattern: the key space is small and write-once
// (bounded by the workload's layer shapes times the hardware option grid),
// so steady-state lookups are lock-free reads shared by all evaluation
// workers; duplicate computes during warm-up are harmless.
type CostMemo struct {
	cfg  Config
	m    sync.Map      // CostKey -> LayerCost
	size stats.Counter // resident entries; kept exact via LoadOrStore
}

// NewCostMemo returns an empty memo bound to cfg.
func NewCostMemo(cfg Config) *CostMemo {
	return &CostMemo{cfg: cfg}
}

// LayerCost returns the memoized cost of layer l on the given
// sub-accelerator configuration, computing and storing it on a miss. The
// second result reports whether the memo served the query without running
// the model.
func (cm *CostMemo) LayerCost(l dnn.Layer, style dataflow.Style, pes, bwGBs int) (LayerCost, bool) {
	key := NewCostKey(l, style, pes, bwGBs)
	if v, ok := cm.m.Load(key); ok {
		return v.(LayerCost), true
	}
	lc := cm.cfg.LayerCost(l, style, pes, bwGBs)
	cm.store(key, lc)
	return lc, false
}

// store inserts one entry, keeping the size counter exact when two callers
// race to fill the same key (LayerCost is pure, so whichever value lands is
// bit-identical to the other).
func (cm *CostMemo) store(key CostKey, lc LayerCost) {
	if _, loaded := cm.m.LoadOrStore(key, lc); !loaded {
		cm.size.Inc()
	}
}

// Size returns the number of memoized entries. It reads a running atomic
// counter — O(1), safe on per-episode stats paths — instead of Ranging the
// whole sync.Map.
func (cm *CostMemo) Size() int {
	return int(cm.size.Value())
}

// sizeScan counts entries by Ranging the map — the O(n) ground truth the
// Size counter is regression-tested against.
func (cm *CostMemo) sizeScan() int {
	n := 0
	cm.m.Range(func(any, any) bool { n++; return true })
	return n
}

// ResetSharedCostMemos does nothing: evaluators share a layer-cost memo only
// through a core.Memos bundle, so there is no process-wide memo to reset. It
// is kept only because the frozen nasaicbench harness calls it.
func ResetSharedCostMemos() {}
