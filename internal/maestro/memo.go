package maestro

import (
	"cmp"
	"iter"
	"slices"
	"sync"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

// memoShardBits sets the CostMemo's shard count, 1<<memoShardBits: enough
// that evaluation workers filling a cold memo rarely share a write lock.
const memoShardBits = 5

// CostMemo memoizes LayerCost for one cost-model configuration. LayerCost is
// a pure function of ⟨layer shape, dataflow, PEs, BW⟩ given the
// configuration, so memoized results are bit-identical to recomputation.
//
// Every hardware evaluation queries the memo once per (compute layer,
// active sub-accelerator), so the lookup is the hot path. Entries live in a
// fixed array of shards, each a map keyed by the comparable CostKey under
// an RWMutex, picked by a multiplicative hash of the key's integer fields:
// a lookup hashes the typed key and takes one read lock, with no interface
// boxing or type hashing. The key space is small and write-once (bounded by
// the workload's layer shapes times the hardware option grid), so steady
// state is read-locked lookups spread over the shards. A miss re-checks and
// computes under its shard's write lock, so each distinct key runs the model
// exactly once and the hit/miss split of a set of queries is the same for
// any worker interleaving.
type CostMemo struct {
	cfg    Config
	shards [1 << memoShardBits]costShard
}

// costShard is one lock-striped slice of a CostMemo.
type costShard struct {
	// mu is read-held for lookups and write-held across a miss's model
	// evaluation (pure computation), so concurrent misses on one key
	// compute it once.
	mu sync.RWMutex //lint:guard journal,io
	m  map[CostKey]LayerCost
}

// NewCostMemo returns an empty memo bound to cfg.
func NewCostMemo(cfg Config) *CostMemo {
	cm := &CostMemo{cfg: cfg}
	for i := range cm.shards {
		cm.shards[i].m = make(map[CostKey]LayerCost)
	}
	return cm
}

// shard picks key's shard from its integer fields; the layer name is not
// hashed (NewCostKey clears it).
func (cm *CostMemo) shard(k *CostKey) *costShard {
	l := &k.Layer
	h := uint64(l.Op)
	for _, v := range [...]int{l.K, l.C, l.R, l.S, l.X, l.Y, l.Stride, int(k.Style), k.PEs, k.BW} {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	}
	return &cm.shards[h>>(64-memoShardBits)]
}

// LayerCost returns the memoized cost of layer l on the given
// sub-accelerator configuration, computing and storing it on a miss. The
// second result reports whether the memo served the query without running
// the model.
func (cm *CostMemo) LayerCost(l dnn.Layer, style dataflow.Style, pes, bwGBs int) (LayerCost, bool) {
	key := NewCostKey(l, style, pes, bwGBs)
	s := cm.shard(&key)
	s.mu.RLock()
	lc, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return lc, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lc, ok := s.m[key]; ok {
		return lc, true // another worker filled it since the read lock
	}
	lc = cm.cfg.LayerCost(l, style, pes, bwGBs)
	s.m[key] = lc
	return lc, false
}

// Store inserts one entry unless its key is resident (a loaded snapshot may
// repeat a key already computed; LayerCost is pure, so both values are
// bit-identical). The caller vouches that lc is the cost of key under the
// memo's Config.
func (cm *CostMemo) Store(key CostKey, lc LayerCost) {
	s := cm.shard(&key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		s.m[key] = lc
	}
}

// Entries yields every memoized entry sorted by key, so equal memos
// snapshot equally whatever order they were filled in. The entries are
// collected when Entries is called.
func (cm *CostMemo) Entries() iter.Seq2[CostKey, LayerCost] {
	type kv struct {
		key CostKey
		lc  LayerCost
	}
	var all []kv
	for i := range cm.shards {
		s := &cm.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			all = append(all, kv{k, v}) //lint:allow determinism sorted by key after the shard loop
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(all, func(a, b kv) int { return compareKeys(a.key, b.key) })
	return func(yield func(CostKey, LayerCost) bool) {
		for _, e := range all {
			if !yield(e.key, e.lc) {
				return
			}
		}
	}
}

// compareKeys orders cost keys field by field.
func compareKeys(a, b CostKey) int {
	x, y := &a.Layer, &b.Layer
	return cmp.Or(
		cmp.Compare(x.Op, y.Op), cmp.Compare(x.K, y.K), cmp.Compare(x.C, y.C),
		cmp.Compare(x.R, y.R), cmp.Compare(x.S, y.S), cmp.Compare(x.X, y.X),
		cmp.Compare(x.Y, y.Y), cmp.Compare(x.Stride, y.Stride),
		cmp.Compare(a.Style, b.Style), cmp.Compare(a.PEs, b.PEs), cmp.Compare(a.BW, b.BW),
		cmp.Compare(x.Name, y.Name),
	)
}

// ResetSharedCostMemos does nothing: evaluators share a layer-cost memo only
// through a core.Memos bundle, so there is no process-wide memo to reset. It
// is kept only because the frozen nasaicbench harness calls it.
func ResetSharedCostMemos() {}
