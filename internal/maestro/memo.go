package maestro

import (
	"cmp"
	"fmt"
	"iter"
	"math"
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
// fixed array of shards, each a map keyed by a memoKey (the CostKey's
// integer fields packed as int32s, with no layer name) under an RWMutex,
// picked by a multiplicative hash of the key: a lookup hashes the typed key
// and takes one read lock, with no interface boxing or string hashing. The
// key space is small and write-once (bounded by the workload's layer shapes
// times the hardware option grid), so steady state is read-locked lookups
// spread over the shards. A miss re-checks and computes under its shard's
// write lock, so each distinct key runs the model exactly once and the
// hit/miss split of a set of queries is the same for any worker
// interleaving.
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
	m  map[memoKey]LayerCost
}

// memoKey is a CostKey as the memo's maps store it: its fields in CostKey
// order, each an int32, and no layer name (the cost does not depend on it).
// It is 44 bytes where a CostKey is over 100.
type memoKey struct {
	op, k, c, r, s, x, y, stride, style, pes, bw int32
}

// newMemoKey packs the key of LayerCost(l, style, pes, bwGBs). It panics on
// a field outside the int32 range, which no layer or sub-accelerator of the
// search spaces comes near.
func newMemoKey(l dnn.Layer, style dataflow.Style, pes, bwGBs int) memoKey {
	return memoKey{
		op: to32(int(l.Op)), k: to32(l.K), c: to32(l.C), r: to32(l.R), s: to32(l.S),
		x: to32(l.X), y: to32(l.Y), stride: to32(l.Stride),
		style: to32(int(style)), pes: to32(pes), bw: to32(bwGBs),
	}
}

// to32 converts a cost-key field, panicking when it does not fit an int32.
func to32(v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("maestro: cost key field %d is outside int32", v))
	}
	return int32(v)
}

// costKey unpacks k into the CostKey NewCostKey builds for it.
func (k memoKey) costKey() CostKey {
	l := dnn.Layer{
		Op: dnn.Op(k.op), K: int(k.k), C: int(k.c), R: int(k.r), S: int(k.s),
		X: int(k.x), Y: int(k.y), Stride: int(k.stride),
	}
	return CostKey{Layer: l, Style: dataflow.Style(k.style), PEs: int(k.pes), BW: int(k.bw)}
}

// NewCostMemo returns an empty memo bound to cfg.
func NewCostMemo(cfg Config) *CostMemo {
	cm := &CostMemo{cfg: cfg}
	for i := range cm.shards {
		cm.shards[i].m = make(map[memoKey]LayerCost)
	}
	return cm
}

// shard picks key's shard.
func (cm *CostMemo) shard(k *memoKey) *costShard {
	h := uint64(0)
	for _, v := range [...]int32{k.op, k.k, k.c, k.r, k.s, k.x, k.y, k.stride, k.style, k.pes, k.bw} {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
	}
	return &cm.shards[h>>(64-memoShardBits)]
}

// LayerCost returns the memoized cost of layer l on the given
// sub-accelerator configuration, computing and storing it on a miss. The
// second result reports whether the memo served the query without running
// the model.
func (cm *CostMemo) LayerCost(l dnn.Layer, style dataflow.Style, pes, bwGBs int) (LayerCost, bool) {
	key := newMemoKey(l, style, pes, bwGBs)
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
// memo's Config; the key's layer name is ignored.
func (cm *CostMemo) Store(key CostKey, lc LayerCost) {
	k := newMemoKey(key.Layer, key.Style, key.PEs, key.BW)
	s := cm.shard(&k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; !ok {
		s.m[k] = lc
	}
}

// Entries yields every memoized entry sorted by key, so equal memos
// snapshot equally whatever order they were filled in. The entries are
// collected when Entries is called; their keys are CostKeys with an empty
// layer name, as NewCostKey builds them.
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
			all = append(all, kv{k.costKey(), v}) //lint:allow determinism sorted by key after the shard loop
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
