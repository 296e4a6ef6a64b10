package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"nasaic/internal/cachefile"
	"nasaic/internal/evalcache"
)

// HWCacheConfigKey is the invalidation identity of a persisted
// hardware-evaluation cache: everything that parameterizes hwCompute beyond
// the per-entry ⟨design fingerprint, network signatures⟩ key — the cost-model
// calibration and the hardware space — plus a caller scope. Per-evaluator
// caches scope to their workload (specs drive the HAP deadline and the
// Feasible flag); a cross-workload shared bundle uses a fixed scope,
// mirroring the in-process sharing semantics of Config.SharedHWCache where
// the task-signature tuple distinguishes workloads.
func HWCacheConfigKey(cfg Config, scope string) string {
	return fmt.Sprintf("%s|%s|%#v", scope, cfg.Cost.Fingerprint(), cfg.HW)
}

// hwCacheKey scopes the evaluator's private cache file to its workload.
func (e *Evaluator) hwCacheKey() string {
	return HWCacheConfigKey(e.Cfg, fmt.Sprintf("%s|%#v", e.W.Name, e.W.Specs))
}

func (e *Evaluator) hwCacheFile() string {
	return filepath.Join(e.Cfg.CacheDir, cachefile.Name("hweval", e.hwCacheKey()))
}

// loadCaches warms the layer-cost memo and the private hardware-evaluation
// cache from Config.CacheDir. Every load failure is deliberately swallowed:
// a missing, torn, corrupt, stale or differently-calibrated file means a
// cold start, which is always correct — both tiers memoize pure functions,
// so the only thing a failed load costs is recomputation.
func (e *Evaluator) loadCaches() {
	dir := e.Cfg.CacheDir
	if dir == "" {
		return
	}
	_, _ = e.layerMemo.LoadFile(e.layerMemo.CacheFile(dir))
	if e.Cfg.SharedHWCache == nil {
		_, _ = evalcache.LoadFile(e.hwCache, e.hwCacheFile(), e.hwCacheKey())
	}
}

// SaveCaches snapshots the evaluator's memo tiers into Config.CacheDir so a
// later process starts warm; a no-op when no cache directory is configured.
// Snapshots are written atomically (temp file + rename), so a crash mid-save
// leaves the previous snapshot intact. A Config.SharedHWCache is skipped —
// the bundle's owner persists it once rather than every borrowing evaluator.
func (e *Evaluator) SaveCaches() error {
	dir := e.Cfg.CacheDir
	if dir == "" {
		return nil
	}
	errs := []error{e.layerMemo.SaveFile(e.layerMemo.CacheFile(dir))}
	if e.Cfg.SharedHWCache == nil {
		errs = append(errs, evalcache.SaveFile(e.hwCache, e.hwCacheFile(), e.hwCacheKey()))
	}
	return errors.Join(errs...)
}

// SaveCaches persists the explorer's evaluator caches (see
// Evaluator.SaveCaches); experiment harnesses call it after each search so
// consecutive runs — and future processes — start warm.
func (x *Explorer) SaveCaches() error {
	return x.eval.SaveCaches()
}
