package core

import (
	"errors"
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
		hw:    evalcache.New[HWMetrics](evalcache.Options{}),
	}
}

// hwFile is the path of the hardware-evaluation snapshot under dir. Its
// config key is the calibration alone: the workload specs are in every
// entry's key, and a design the hardware space rejects is never cached.
func (m *Memos) hwFile(dir string) string {
	return filepath.Join(dir, cachefile.Name("hweval", m.cost.Fingerprint()))
}

// LoadDir warms the bundle from the persistent tier under dir: the layer-cost
// memo and the hardware-evaluation cache (the accuracy memo is cheap to
// rebuild and is not persisted). Every file-level failure — missing, torn,
// corrupt, stale version, different calibration — loads nothing, which is
// always safe: a cold start computes the same values. An empty dir is a
// no-op.
func (m *Memos) LoadDir(dir string) {
	if dir == "" {
		return
	}
	_, _ = m.layer.LoadFile(m.layer.CacheFile(dir))
	_, _ = evalcache.LoadFile(m.hw, m.hwFile(dir), m.cost.Fingerprint())
}

// SaveDir snapshots the layer-cost memo and the hardware-evaluation cache
// into dir so a later process starts warm. Each file is replaced atomically
// (temp file + rename), so a crash mid-save leaves the previous snapshot
// intact. An empty dir is a no-op.
func (m *Memos) SaveDir(dir string) error {
	if dir == "" {
		return nil
	}
	return errors.Join(
		m.layer.SaveFile(m.layer.CacheFile(dir)),
		evalcache.SaveFile(m.hw, m.hwFile(dir), m.cost.Fingerprint()),
	)
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
