package nasaic

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"nasaic/internal/cachefile"
	"nasaic/internal/core"
	"nasaic/internal/evalcache"
	"nasaic/internal/maestro"
)

// Optimizer selects the search strategy of one run.
type Optimizer string

const (
	// OptimizerRL is the paper's RNN-controller REINFORCE search.
	OptimizerRL Optimizer = "rl"
	// OptimizerEA is the evolutionary alternative sharing the same
	// decision encoding, evaluator and reward.
	OptimizerEA Optimizer = "ea"
)

// settings is the resolved configuration of one Run call.
type settings struct {
	workload  string
	cfg       core.Config
	optimizer Optimizer
	shared    *SharedMemos
	handlers  []func(Event)
	channels  []chan<- Event
	errs      []error
}

// Option configures a Run call. Options are functional and applied in order;
// invalid values surface as an error from Run, never a panic.
type Option func(*settings)

func defaultSettings() settings {
	return settings{
		workload:  "W1",
		cfg:       core.DefaultConfig(),
		optimizer: OptimizerRL,
	}
}

// WithWorkload selects the workload to explore: W1 (CIFAR-10 + Nuclei), W2
// (CIFAR-10 + STL-10) or W3 (CIFAR-10 ×2). Default W1.
func WithWorkload(name string) Option {
	return func(s *settings) { s.workload = name }
}

// WithEpisodes sets β, the number of exploration episodes (default 500).
func WithEpisodes(n int) Option {
	return func(s *settings) { s.cfg.Episodes = n }
}

// WithHWSteps sets φ, the hardware-only exploration steps per episode
// (default 10).
func WithHWSteps(n int) Option {
	return func(s *settings) { s.cfg.HWSteps = n }
}

// WithSeed sets the random seed; runs are deterministic per seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithWorkers bounds the goroutines used for parallel hardware evaluation;
// <=0 selects NumCPU (capped at 16).
func WithWorkers(n int) Option {
	return func(s *settings) { s.cfg.Workers = n }
}

// WithOptimizer selects the search strategy (default OptimizerRL).
func WithOptimizer(o Optimizer) Option {
	return func(s *settings) {
		if o != OptimizerRL && o != OptimizerEA {
			s.errs = append(s.errs, fmt.Errorf("nasaic: unknown optimizer %q (want %q or %q)", o, OptimizerRL, OptimizerEA))
			return
		}
		s.optimizer = o
	}
}

// WithRefine toggles the feasibility-preserving coordinate-descent exploit
// phase after the search loop (default on).
func WithRefine(on bool) Option {
	return func(s *settings) { s.cfg.Refine = on }
}

// WithHWCache toggles the sharded hardware-evaluation cache (default on).
// Results are bit-identical either way; only wall clock changes.
func WithHWCache(on bool) Option {
	return func(s *settings) { s.cfg.HWCache = on }
}

// WithCacheDir points the run's layer-cost memo and hardware-evaluation
// cache at a persistent on-disk warm tier: matching snapshots under dir are
// loaded before the search and written back (atomically) when Run returns,
// so a second process pointed at the same directory starts with ~100% memo
// hit rates from the first episode. Snapshot files are versioned and
// checksummed and keyed by the cost-model calibration; any missing, torn,
// corrupt or mismatched file silently degrades to a cold start. The warm
// tier memoizes pure functions and round-trips values bit-exactly, so it
// changes work counters (hits vs computes), never results. When combined
// with WithSharedMemos, the bundle is warm-loaded from dir once per process
// and saved back after each run.
func WithCacheDir(dir string) Option {
	return func(s *settings) { s.cfg.CacheDir = dir }
}

// WithEventHandler subscribes fn to per-episode progress events. Handlers
// run synchronously on the exploration goroutine in subscription order; a
// slow handler slows the run down but never changes its results.
func WithEventHandler(fn func(Event)) Option {
	return func(s *settings) {
		if fn == nil {
			s.errs = append(s.errs, fmt.Errorf("nasaic: WithEventHandler(nil)"))
			return
		}
		s.handlers = append(s.handlers, fn)
	}
}

// WithEventChannel streams per-episode progress events into ch. Sends are
// blocking, so the receiver paces the run — but once the run's context is
// done, undeliverable events are dropped instead of wedging the cancelled
// run on an abandoned channel. Run does not close the channel.
func WithEventChannel(ch chan<- Event) Option {
	return func(s *settings) {
		if ch == nil {
			s.errs = append(s.errs, fmt.Errorf("nasaic: WithEventChannel(nil)"))
			return
		}
		s.channels = append(s.channels, ch)
	}
}

// SharedMemos bundles the caches several runs in one process may share: the
// hardware-evaluation cache, the accuracy-predictor memo, and (by enabling
// the process-wide table) the layer-cost memo. All three memoize pure
// functions, so sharing changes which run pays for a computation but never
// any result.
type SharedMemos struct {
	acc *core.AccuracyMemo
	hw  *evalcache.Cache[core.HWMetrics]

	loadOnce sync.Once // warm tier is loaded at most once per bundle
}

// NewSharedMemos returns an empty shared-memo bundle.
func NewSharedMemos() *SharedMemos {
	return &SharedMemos{
		acc: core.NewAccuracyMemo(),
		hw:  evalcache.New[core.HWMetrics](evalcache.Options{}),
	}
}

// HWCacheStats snapshots the shared hardware-evaluation cache counters.
func (m *SharedMemos) HWCacheStats() evalcache.Stats { return m.hw.Stats() }

// AccuracyMemoSize reports the number of memoized architectures.
func (m *SharedMemos) AccuracyMemoSize() int { return m.acc.Size() }

// WithSharedMemos routes the run's hardware-evaluation cache and accuracy
// memo through m and enables the process-wide layer-cost memo, so concurrent
// or consecutive runs warm-start each other.
func WithSharedMemos(m *SharedMemos) Option {
	return func(s *settings) {
		if m == nil {
			s.errs = append(s.errs, fmt.Errorf("nasaic: WithSharedMemos(nil)"))
			return
		}
		s.shared = m
		s.cfg.AccMemo = m.acc
		s.cfg.SharedHWCache = m.hw
		s.cfg.ShareLayerMemo = true
	}
}

// sharedLayerMemo returns the process-wide layer-cost memo a bundle-routed
// run uses (the facade never varies the calibration, so there is exactly
// one).
func sharedLayerMemo() *maestro.CostMemo {
	return maestro.SharedCostMemo(core.DefaultConfig().Cost)
}

// sharedHWKey is the invalidation identity of the bundle's cross-workload
// hardware-evaluation cache. The fixed "shared" scope mirrors the
// in-process sharing semantics: entries are keyed by the full
// ⟨design fingerprint, task-signature tuple⟩, which distinguishes workloads.
func sharedHWKey() string {
	return core.HWCacheConfigKey(core.DefaultConfig(), "shared")
}

// LoadDir warms the bundle from the persistent tier under dir: the shared
// hardware-evaluation cache and the process-wide layer-cost memo. It returns
// the number of entries loaded into each; every file-level failure —
// missing, torn, corrupt, stale version, different calibration — loads
// nothing and returns zero, which is always safe (cold start, identical
// results). A bundle loads at most once: later calls (including the lazy
// load a WithCacheDir+WithSharedMemos Run performs) are no-ops returning
// zero.
func (m *SharedMemos) LoadDir(dir string) (layerEntries, hwEntries int) {
	m.loadOnce.Do(func() {
		cm := sharedLayerMemo()
		layerEntries, _ = cm.LoadFile(cm.CacheFile(dir))
		key := sharedHWKey()
		hwEntries, _ = evalcache.LoadFile(m.hw, filepath.Join(dir, cachefile.Name("hweval", key)), key)
	})
	return layerEntries, hwEntries
}

// SaveDir atomically snapshots the bundle — the shared hardware-evaluation
// cache and the process-wide layer-cost memo — into dir, so the next process
// starts warm. Safe to call periodically and at shutdown; each save replaces
// the previous snapshot via temp file + rename.
func (m *SharedMemos) SaveDir(dir string) error {
	cm := sharedLayerMemo()
	key := sharedHWKey()
	return errors.Join(
		cm.SaveFile(cm.CacheFile(dir)),
		evalcache.SaveFile(m.hw, filepath.Join(dir, cachefile.Name("hweval", key)), key),
	)
}
