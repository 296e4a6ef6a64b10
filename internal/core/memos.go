package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"nasaic/internal/cachefile"
	"nasaic/internal/evalcache"
	"nasaic/internal/maestro"
	"nasaic/internal/predictor"
)

// Memos is the evaluator's memo bundle: the accuracy-predictor memo, the
// layer-cost memo and the hardware-evaluation cache. Every tier memoizes a
// pure function, so evaluators sharing one bundle — the searches of one
// table, the jobs of one daemon — change which of them pays for a
// computation, never a result. A bundle is bound to one cost-model
// calibration: the layer costs and the areas it caches depend on it, so
// NewEvaluator rejects a bundle bound to another. Everything else a cached
// value depends on is in its key (the hardware key starts with the
// workload's specs), so evaluators of different workloads may share one.
//
// Memos is also the only code that knows the persistent warm tier's format
// (LoadDir, SaveDir): one internal/cachefile snapshot per memoized tier,
// named and keyed by the calibration, holding the tier's gob-encoded
// entries.
type Memos struct {
	cost  maestro.Config
	acc   *accuracyMemo
	layer *maestro.CostMemo
	hw    *evalcache.Cache[HWMetrics]
}

// NewMemos returns an empty bundle bound to the cost-model calibration cost.
func NewMemos(cost maestro.Config) *Memos {
	return &Memos{
		cost:  cost,
		acc:   &accuracyMemo{m: map[accKey]float64{}},
		layer: maestro.NewCostMemo(cost),
		hw:    evalcache.New[HWMetrics](),
	}
}

// memoEntry is one ⟨key, cost⟩ pair of the layer-cost snapshot. gob writes
// the element type's name into the file, so the name is part of the format.
type memoEntry struct {
	Key  maestro.CostKey
	Cost maestro.LayerCost
}

// snapshot is one warm-tier file: its path, its cachefile kind and the
// config key it is stored under.
type snapshot struct{ path, kind, key string }

// snapshots returns the layer-cost and hardware-evaluation files under dir.
// Both are keyed by the calibration alone: the workload specs are in every
// hardware entry's key, and a design the hardware space rejects is never
// cached. The names embed a hash of the calibration, so differently
// calibrated bundles share a directory.
func (m *Memos) snapshots(dir string) (layer, hw snapshot) {
	key := m.cost.Fingerprint()
	return snapshot{filepath.Join(dir, cachefile.Name("layercost", key)), "layercost", key},
		snapshot{filepath.Join(dir, cachefile.Name("hweval", key)), "evalcache", key}
}

// LoadDir warms the bundle from the persistent tier under dir: the layer-cost
// memo and the hardware-evaluation cache (the accuracy memo is cheap to
// rebuild and is not persisted). A file that is missing, torn, corrupt, of
// another kind or version, written under another calibration or not
// decodable loads nothing, which is always safe: a cold start computes the
// same values. Entries already resident are kept. An empty dir is a no-op.
func (m *Memos) LoadDir(dir string) {
	if dir == "" {
		return
	}
	layer, hw := m.snapshots(dir)
	for _, e := range loadSnapshot[memoEntry](layer) {
		m.layer.Store(e.Key, e.Cost)
	}
	// Replaying the entries in snapshot order rebuilds each shard's LRU
	// recency.
	for _, e := range loadSnapshot[evalcache.Entry[HWMetrics]](hw) {
		m.hw.Put(e.Key, e.Val)
	}
}

// SaveDir snapshots the layer-cost memo, sorted by key so equal memos save
// equal bytes, and the hardware-evaluation cache, in LRU order, into dir so
// a later process starts warm. Each file is replaced atomically (temp file
// + rename), so a crash mid-save leaves the previous snapshot intact. An
// empty dir is a no-op.
func (m *Memos) SaveDir(dir string) error {
	if dir == "" {
		return nil
	}
	var entries []memoEntry
	for k, c := range m.layer.Entries() {
		entries = append(entries, memoEntry{Key: k, Cost: c})
	}
	layer, hw := m.snapshots(dir)
	return errors.Join(saveSnapshot(layer, entries), saveSnapshot(hw, m.hw.Entries()))
}

// saveSnapshot writes entries to s, gob-encoded: float64s round-trip
// bit-exactly, so a reloaded entry equals a recomputed one.
func saveSnapshot[E any](s snapshot, entries []E) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return fmt.Errorf("core: encode %s snapshot: %w", s.kind, err)
	}
	return cachefile.WriteFile(s.path, s.kind, s.key, buf.Bytes())
}

// loadSnapshot returns the entries of s, or none when the file fails to
// read, verify or decode.
func loadSnapshot[E any](s snapshot) []E {
	payload, err := cachefile.ReadFile(s.path, s.kind, s.key)
	if err != nil {
		return nil
	}
	var entries []E
	if gob.NewDecoder(bytes.NewReader(payload)).Decode(&entries) != nil {
		return nil
	}
	return entries
}

// accuracyMemo memoizes the training-and-validating path per ⟨dataset,
// architecture signature⟩ (the predictor is a pure function of both).
type accuracyMemo struct {
	mu sync.Mutex
	m  map[accKey]float64
}

// accKey is an accuracy-memo key: a struct, so a lookup builds no string.
type accKey struct {
	dataset predictor.Dataset
	sig     string
}

func (am *accuracyMemo) lookup(key accKey) (float64, bool) {
	am.mu.Lock()
	defer am.mu.Unlock()
	q, ok := am.m[key]
	return q, ok
}

func (am *accuracyMemo) store(key accKey, q float64) {
	am.mu.Lock()
	defer am.mu.Unlock()
	am.m[key] = q
}
