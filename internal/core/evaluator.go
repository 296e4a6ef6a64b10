package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"nasaic/internal/accel"
	"nasaic/internal/dnn"
	"nasaic/internal/evalcache"
	"nasaic/internal/maestro"
	"nasaic/internal/predictor"
	"nasaic/internal/sched"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// Bounds are the penalty normalizers bl, be, ba of Eq. (3): upper bounds on
// latency, energy and area obtained by exploring the hardware space with the
// largest architectures (the circles in Fig. 1).
type Bounds struct {
	Latency  int64
	EnergyNJ float64
	AreaUM2  float64
}

// HWMetrics are the hardware-side evaluation results for one
// (architectures, design) pair.
type HWMetrics struct {
	Latency  int64
	EnergyNJ float64
	AreaUM2  float64
	// ResourceOK reports the Σpe ≤ NP, Σbw ≤ BW constraints.
	ResourceOK bool
	// Feasible reports that every design spec is met.
	Feasible bool
	// BufDemand sizes each sub-accelerator's buffer (design order).
	BufDemand []int64
	// Assign is the HAP layer assignment ([chain][layer] → active-sub index).
	Assign sched.Assignment
}

// Evaluator implements component ③: the mapping-and-scheduling path via the
// cost model and HAP solver, and the training-and-validating path via the
// accuracy predictor with memoization (a trained network is never retrained,
// matching the paper's non-blocking trainer). With Config.HWCache set, the
// mapping-and-scheduling path is memoized the same way through a sharded
// LRU keyed by ⟨network signatures, design fingerprint⟩.
type Evaluator struct {
	W      workload.Workload
	Cfg    Config
	Bounds Bounds

	mu        sync.Mutex
	trainings int

	// accMemo memoizes the training-and-validating path per ⟨dataset,
	// architecture signature⟩. It is either this evaluator's private memo
	// or, via Config.AccMemo, a memo shared across the evaluators of one
	// experiment so repeat architectures are never "retrained" anywhere in
	// the process.
	accMemo *AccuracyMemo

	// hwCache memoizes the expensive valid-design evaluations; nil when
	// Config.HWCache is off. Cached HWMetrics are shared between callers
	// and must be treated as immutable.
	hwCache *evalcache.Cache[HWMetrics]

	hwRequests stats.Counter // HWEval calls observed (counted requests only)
	hwComputes stats.Counter // cost-model + HAP computations actually run
	hwHits     stats.Counter // requests served from cache or in-flight dedup

	// layerMemo memoizes the MAESTRO cost model per maestro.CostKey under
	// the hardware cache, so designs that reuse a sub-accelerator
	// configuration skip the cost model even when the full design
	// fingerprint is new; the key space is bounded by the workload's layer
	// shapes times the hardware option grid. It is this evaluator's private
	// memo, or the process-wide maestro.SharedCostMemo with
	// Cfg.ShareLayerMemo (warm-starting fresh evaluators). The counters are
	// per-evaluator either way, so a shared memo shows up as a near-100% hit
	// rate on evaluators built after the first.
	layerReqs stats.Counter // requests observed by the layer-cost memo
	layerHits stats.Counter // requests served from the memo
	layerMemo *maestro.CostMemo
}

// AccuracyMemo is a concurrency-safe accuracy-predictor memo, shareable
// between evaluators via Config.AccMemo. The predictor is a pure function of
// ⟨dataset, architecture⟩, so a shared memo changes which evaluator pays for
// a computation but never its result.
type AccuracyMemo struct {
	mu sync.Mutex
	m  map[string]float64
}

// NewAccuracyMemo returns an empty memo.
func NewAccuracyMemo() *AccuracyMemo {
	return &AccuracyMemo{m: map[string]float64{}}
}

// Size returns the number of memoized architectures.
func (am *AccuracyMemo) Size() int {
	am.mu.Lock()
	defer am.mu.Unlock()
	return len(am.m)
}

func (am *AccuracyMemo) lookup(key string) (float64, bool) {
	am.mu.Lock()
	defer am.mu.Unlock()
	q, ok := am.m[key]
	return q, ok
}

func (am *AccuracyMemo) store(key string, q float64) {
	am.mu.Lock()
	defer am.mu.Unlock()
	am.m[key] = q
}

// EvalStats is a snapshot of the evaluator's work counters.
type EvalStats struct {
	// Trainings counts accuracy-predictor trainings (memoized networks are
	// never retrained).
	Trainings int
	// HWRequests counts hardware evaluation requests.
	HWRequests int
	// HWEvals counts the cost-model + HAP computations actually performed;
	// with the cache enabled this is HWRequests minus HWCacheHits minus the
	// cheap resource-violation short-circuits.
	HWEvals int
	// HWCacheHits counts requests served without recomputation.
	HWCacheHits int
	// LayerCostRequests counts cost-model queries seen by the per-layer
	// memo under buildProblem; LayerCostHits counts the queries it served
	// without running the MAESTRO model.
	LayerCostRequests int
	LayerCostHits     int
}

// HitPct returns the percentage of hardware requests served from cache.
func (s EvalStats) HitPct() float64 {
	return stats.Pct(int64(s.HWCacheHits), int64(s.HWRequests))
}

// LayerHitPct returns the percentage of cost-model queries served by the
// per-layer memo.
func (s EvalStats) LayerHitPct() float64 {
	return stats.Pct(int64(s.LayerCostHits), int64(s.LayerCostRequests))
}

// NewEvaluator builds an evaluator and computes the penalty bounds.
func NewEvaluator(w workload.Workload, cfg Config) (*Evaluator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{W: w, Cfg: cfg, accMemo: cfg.AccMemo}
	if e.accMemo == nil {
		e.accMemo = NewAccuracyMemo()
	}
	if cfg.ShareLayerMemo {
		e.layerMemo = maestro.SharedCostMemo(cfg.Cost)
	} else {
		e.layerMemo = maestro.NewCostMemo(cfg.Cost)
	}
	switch {
	case cfg.SharedHWCache != nil:
		e.hwCache = cfg.SharedHWCache
	case cfg.HWCache:
		e.hwCache = evalcache.New[HWMetrics](evalcache.Options{})
	}
	// Warm-load before computing bounds: the bound sampling already runs
	// through both memo tiers, so a warm start skips its evaluations too.
	e.loadCaches()
	e.Bounds = e.computeBounds()
	return e, nil
}

// hwKey builds the canonical cache key of one hardware evaluation: the
// design fingerprint plus every network's memoization signature (the same
// identity the accuracy path keys on).
func hwKey(nets []*dnn.Network, d accel.Design) string {
	var b strings.Builder
	b.WriteString(d.Fingerprint())
	for _, n := range nets {
		b.WriteByte('|')
		b.WriteString(n.Signature())
	}
	return b.String()
}

// computeBounds explores the hardware space with the largest architecture of
// every task — the networks spec-blind NAS converges to — and takes, per
// metric, the best value any sampled design achieves. These are the Fig. 1
// circles the paper defines bl/be/ba from: the envelope that successive
// NAS→ASIC optimization cannot improve past. Each bound is floored at
// 1.25× its spec so the Eq. (3) denominators stay positive and the penalty
// keeps a useful gradient scale.
func (e *Evaluator) computeBounds() Bounds {
	rng := stats.NewRNG(e.Cfg.Seed ^ 0x5eed)
	nets := make([]*dnn.Network, len(e.W.Tasks))
	for i, t := range e.W.Tasks {
		nets[i] = t.Space.MustDecode(t.Space.Largest())
	}
	var b Bounds
	first := true
	const samples = 60
	for s := 0; s < samples; s++ {
		d := e.randomDesign(rng)
		m, _ := e.hwEval(context.Background(), nets, d, false) //lint:allow ctxplumb bounds sampling is small fixed work on the non-ctx construction path
		if !m.ResourceOK {
			continue
		}
		if first {
			b = Bounds{Latency: m.Latency, EnergyNJ: m.EnergyNJ, AreaUM2: m.AreaUM2}
			first = false
			continue
		}
		if m.Latency < b.Latency {
			b.Latency = m.Latency
		}
		if m.EnergyNJ < b.EnergyNJ {
			b.EnergyNJ = m.EnergyNJ
		}
		if m.AreaUM2 < b.AreaUM2 {
			b.AreaUM2 = m.AreaUM2
		}
	}
	sp := e.W.Specs
	if min := int64(float64(sp.LatencyCycles) * 1.25); b.Latency < min {
		b.Latency = min
	}
	if min := sp.EnergyNJ * 1.25; b.EnergyNJ < min {
		b.EnergyNJ = min
	}
	if min := sp.AreaUM2 * 1.25; b.AreaUM2 < min {
		b.AreaUM2 = min
	}
	return b
}

// randomDesign samples a resource-feasible design uniformly (rejection).
func (e *Evaluator) randomDesign(rng *stats.RNG) accel.Design {
	hw := e.Cfg.HW
	for {
		subs := make([]accel.SubAccel, hw.NumSubs)
		for i := range subs {
			subs[i] = accel.SubAccel{
				DF:  hw.Styles[rng.Intn(len(hw.Styles))],
				PEs: hw.PEOptions[rng.Intn(len(hw.PEOptions))],
				BW:  hw.BWOptions[rng.Intn(len(hw.BWOptions))],
			}
		}
		d := accel.NewDesign(subs...)
		if d.Validate(hw.Limits) == nil {
			return d
		}
	}
}

// HWEval evaluates the hardware metrics of running the given networks on
// design d (mapping and scheduling via HAP under the latency spec).
func (e *Evaluator) HWEval(nets []*dnn.Network, d accel.Design) HWMetrics {
	m, _ := e.hwEval(context.Background(), nets, d, true) //lint:allow ctxplumb compat shim: non-ctx public API delegates to HWEvalCtx
	return m
}

// HWEvalCtx is HWEval with cooperative cancellation: the context is checked
// on entry and threaded into the HAP solver's worker pools, so a cancelled or
// expired context aborts the evaluation promptly with ctx's error. Aborted
// computations are never cached; uncancelled evaluations are bit-identical to
// HWEval.
func (e *Evaluator) HWEvalCtx(ctx context.Context, nets []*dnn.Network, d accel.Design) (HWMetrics, error) {
	return e.hwEval(ctx, nets, d, true)
}

func (e *Evaluator) hwEval(ctx context.Context, nets []*dnn.Network, d accel.Design, count bool) (HWMetrics, error) {
	if err := ctx.Err(); err != nil {
		return HWMetrics{}, err
	}
	if count {
		e.hwRequests.Inc()
	}
	if d.Validate(e.Cfg.HW.Limits) != nil {
		// Resource-violating sample: report the bound metrics so the
		// penalty saturates; the reward then steers the controller back
		// into the feasible region. This path skips the cost model and HAP
		// entirely, so it is neither cached nor counted as an evaluation.
		return HWMetrics{
			Latency:  maxI64(e.Bounds.Latency, 2*e.W.Specs.LatencyCycles),
			EnergyNJ: maxF(e.Bounds.EnergyNJ, 2*e.W.Specs.EnergyNJ),
			AreaUM2:  maxF(e.Bounds.AreaUM2, 2*e.W.Specs.AreaUM2),
		}, nil
	}
	if e.hwCache == nil {
		if count {
			e.hwComputes.Inc()
		}
		return e.hwCompute(ctx, nets, d)
	}
	m, avoided, err := e.hwCache.GetOrComputeErr(hwKey(nets, d), func() (HWMetrics, error) {
		if count {
			e.hwComputes.Inc()
		}
		return e.hwCompute(ctx, nets, d)
	})
	if err != nil {
		return HWMetrics{}, err
	}
	if avoided && count {
		e.hwHits.Inc()
	}
	return m, nil
}

// hwCompute runs the uncached mapping-and-scheduling path: build the HAP
// cost table, solve the assignment, and size buffers and area. It is a pure
// function of (nets, d) given the evaluator's fixed workload and config,
// which is what makes the result cacheable and the search bit-deterministic
// across cache modes and worker counts. A done context aborts the solve and
// returns ctx's error; nothing partial escapes.
func (e *Evaluator) hwCompute(ctx context.Context, nets []*dnn.Network, d accel.Design) (HWMetrics, error) {
	active := d.Active()
	problem := e.buildProblem(nets, d, active)

	_, res, err := sched.HAPCtx(ctx, problem)
	if err != nil {
		if ctx.Err() != nil {
			return HWMetrics{}, ctx.Err()
		}
		panic(fmt.Sprintf("core: HAP failed: %v", err))
	}

	buf := make([]int64, len(d.Subs))
	for ai, di := range active {
		if ai < len(res.BufferDemand) {
			buf[di] = res.BufferDemand[ai]
		}
	}
	area := d.Area(e.Cfg.Cost, buf)
	sp := e.W.Specs
	return HWMetrics{
		Latency:    res.Makespan,
		EnergyNJ:   res.EnergyNJ,
		AreaUM2:    area,
		ResourceOK: true,
		Feasible:   res.Makespan <= sp.LatencyCycles && res.EnergyNJ <= sp.EnergyNJ && area <= sp.AreaUM2,
		BufDemand:  buf,
		Assign:     res.Assign,
	}, nil
}

// layerCost evaluates the cost model for one (layer, sub-accelerator) pair
// through the per-layer memo: repeated sub-accelerator configurations across
// designs skip the MAESTRO model entirely. LayerCost is pure, so memoized
// results are bit-identical to recomputation.
func (e *Evaluator) layerCost(l dnn.Layer, sub accel.SubAccel) maestro.LayerCost {
	e.layerReqs.Inc()
	lc, hit := e.layerMemo.LayerCost(l, sub.DF, sub.PEs, sub.BW)
	if hit {
		e.layerHits.Inc()
	}
	return lc
}

// LayerMemoEntries reports the resident size of the evaluator's layer-cost
// memo (the process-wide memo's size under Config.ShareLayerMemo).
func (e *Evaluator) LayerMemoEntries() int {
	return e.layerMemo.Size()
}

// buildProblem assembles the HAP cost table for the given networks on the
// design's active sub-accelerators.
func (e *Evaluator) buildProblem(nets []*dnn.Network, d accel.Design, active []int) sched.Problem {
	problem := sched.Problem{
		NumAccels: len(active),
		Deadline:  e.W.Specs.LatencyCycles,
	}
	for ni, n := range nets {
		ch := sched.Chain{Name: fmt.Sprintf("net%d", ni)}
		for _, l := range n.ComputeLayers() {
			sl := sched.Layer{Name: l.Name, Options: make([]sched.Option, len(active))}
			for ai, di := range active {
				lc := e.layerCost(l, d.Subs[di])
				sl.Options[ai] = sched.Option{
					Cycles:      lc.Cycles,
					EnergyNJ:    lc.EnergyNJ,
					BufferBytes: lc.BufferBytes,
				}
			}
			ch.Layers = append(ch.Layers, sl)
		}
		problem.Chains = append(problem.Chains, ch)
	}
	return problem
}

// Schedule returns the concrete HAP schedule (problem, result, per-layer
// placements) of the networks on design d — the map() and sch() functions of
// §III-➌ made inspectable. It errors when the design violates resource
// limits.
func (e *Evaluator) Schedule(nets []*dnn.Network, d accel.Design) (sched.Problem, sched.Result, []sched.Placement, error) {
	if err := d.Validate(e.Cfg.HW.Limits); err != nil {
		return sched.Problem{}, sched.Result{}, nil, err
	}
	problem := e.buildProblem(nets, d, d.Active())
	_, res, err := sched.HAP(problem)
	if err != nil {
		return sched.Problem{}, sched.Result{}, nil, err
	}
	res2, placements, err := sched.Timeline(problem, res.Assign)
	if err != nil {
		return sched.Problem{}, sched.Result{}, nil, err
	}
	return problem, res2, placements, nil
}

// Penalty computes Eq. (3) for the given metrics.
func (e *Evaluator) Penalty(m HWMetrics) float64 {
	sp, b := e.W.Specs, e.Bounds
	p := relExcess(float64(m.Latency), float64(sp.LatencyCycles), float64(b.Latency)) +
		relExcess(m.EnergyNJ, sp.EnergyNJ, b.EnergyNJ) +
		relExcess(m.AreaUM2, sp.AreaUM2, b.AreaUM2)
	if !m.ResourceOK {
		p += 1
	}
	return p
}

func relExcess(r, spec, bound float64) float64 {
	if r <= spec {
		return 0
	}
	den := bound - spec
	if den <= 0 {
		den = spec
	}
	return (r - spec) / den
}

// Accuracies runs the training-and-validating path for every task network,
// memoized by architecture signature.
func (e *Evaluator) Accuracies(nets []*dnn.Network) []float64 {
	if len(nets) != len(e.W.Tasks) {
		panic("core: network count mismatch")
	}
	accs := make([]float64, len(nets))
	for i, n := range nets {
		key := e.W.Tasks[i].Dataset.String() + "|" + n.Signature()
		q, ok := e.accMemo.lookup(key)
		if !ok {
			q = predictor.Accuracy(e.W.Tasks[i].Dataset, n)
			e.accMemo.store(key, q)
			e.mu.Lock()
			e.trainings++
			e.mu.Unlock()
		}
		accs[i] = q
	}
	return accs
}

// Reward computes Eq. (4): R = weighted(D) − ρ·P.
func (e *Evaluator) Reward(weighted, penalty float64) float64 {
	return weighted - e.Cfg.Rho*penalty
}

// Stats returns (trainings performed, hardware evaluations performed).
// Deprecated-style shim kept for existing callers; EvalStats carries the
// full counter set including cache effectiveness.
func (e *Evaluator) Stats() (trainings, hwEvals int) {
	s := e.EvalStats()
	return s.Trainings, s.HWEvals
}

// EvalStats snapshots the evaluator's work counters.
func (e *Evaluator) EvalStats() EvalStats {
	e.mu.Lock()
	tr := e.trainings
	e.mu.Unlock()
	return EvalStats{
		Trainings:         tr,
		HWRequests:        int(e.hwRequests.Value()),
		HWEvals:           int(e.hwComputes.Value()),
		HWCacheHits:       int(e.hwHits.Value()),
		LayerCostRequests: int(e.layerReqs.Value()),
		LayerCostHits:     int(e.layerHits.Value()),
	}
}

// CacheStats snapshots the hardware-evaluation cache counters (zero when the
// cache is disabled). Unlike EvalStats, these include the uncounted
// bound-computation traffic and in-flight dedups.
func (e *Evaluator) CacheStats() evalcache.Stats {
	if e.hwCache == nil {
		return evalcache.Stats{}
	}
	return e.hwCache.Stats()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
