package nasaic

import (
	"fmt"

	"nasaic/internal/core"
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
	cacheDir  string
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

// WithWorkers bounds the goroutines that evaluate one batch of hardware
// candidates (an RL round, an EA generation, a refine sweep); <=0 selects
// GOMAXPROCS (capped at 16), and more than 64 is refused. Results are the
// same at every value.
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

// WithCacheDir backs the run's memo bundle — its own, or the one from
// WithSharedMemos — with a persistent on-disk warm tier: the bundle's
// layer-cost memo and hardware-evaluation cache are loaded from dir before
// the search and written back (atomically) when Run returns, once per run,
// so a second process pointed at the same directory starts with ~100% memo
// hit rates from the first episode. Snapshot files are versioned and
// checksummed and keyed by the cost-model calibration; any missing, torn,
// corrupt or mismatched file silently degrades to a cold start. The warm
// tier memoizes pure functions and round-trips values bit-exactly, so it
// changes work counters (hits vs computes), never results.
func WithCacheDir(dir string) Option {
	return func(s *settings) { s.cacheDir = dir }
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

// SharedMemos is a memo bundle several runs in one process may share: the
// accuracy-predictor memo, the layer-cost memo and the hardware-evaluation
// cache. All three memoize pure functions, so sharing changes which run pays
// for a computation but never any result. Its LoadDir/SaveDir persist the
// bundle; WithCacheDir calls them around a run.
type SharedMemos = core.Memos

// NewSharedMemos returns an empty bundle bound to the default cost-model
// calibration (the only one the facade uses).
func NewSharedMemos() *SharedMemos {
	return core.NewMemos(core.DefaultConfig().Cost)
}

// WithSharedMemos routes the run's memos through m, so concurrent or
// consecutive runs warm-start each other.
func WithSharedMemos(m *SharedMemos) Option {
	return func(s *settings) {
		if m == nil {
			s.errs = append(s.errs, fmt.Errorf("nasaic: WithSharedMemos(nil)"))
			return
		}
		s.cfg.Memos = m
	}
}
