package core

import (
	"context"
	"fmt"
	"strconv"

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
// matching the paper's non-blocking trainer). The mapping-and-scheduling
// path is memoized the same way through a sharded LRU keyed by ⟨specs,
// design fingerprint, network signatures⟩, extending the paper's "never
// re-evaluate what you already know" from the accuracy path to the much
// hotter mapping-and-scheduling path. The evaluation is a pure function of its
// inputs, so the cache changes wall clock and evaluation counts, never a
// result.
type Evaluator struct {
	W      workload.Workload
	Cfg    Config
	Bounds Bounds

	// accMemo, hwCache and layerMemo are the tiers of the Config.Memos
	// bundle (a private one when nil). accMemo memoizes the
	// training-and-validating path per ⟨dataset, architecture signature⟩.
	// hwCache memoizes the valid-design evaluations under appendHWKey's
	// key, which starts with hwPrefix (the workload specs, which set the
	// HAP deadline and the Feasible flag); cached HWMetrics are shared
	// between callers and must be treated as immutable. Tests set hwCache
	// to nil after construction to get the uncached reference path.
	accMemo  *accuracyMemo
	hwCache  *evalcache.Cache[HWMetrics]
	hwPrefix string

	trainings  stats.Counter // accuracy-predictor trainings run
	hwRequests stats.Counter // HWEvalCtx calls observed (counted requests only)
	hwComputes stats.Counter // cost-model + HAP computations actually run
	hwHits     stats.Counter // requests served from cache or in-flight dedup

	// layerMemo memoizes the MAESTRO cost model per maestro.CostKey under
	// the hardware cache, so designs that reuse a sub-accelerator
	// configuration skip the cost model even when the full design
	// fingerprint is new; the key space is bounded by the workload's layer
	// shapes times the hardware option grid. The counters are per-evaluator,
	// so a shared memo shows up as a near-100% hit rate on evaluators built
	// after the first.
	layerReqs stats.Counter // requests observed by the layer-cost memo
	layerHits stats.Counter // requests served from the memo
	layerMemo *maestro.CostMemo
}

// EvalStats is the evaluator's work counters: one evaluator's snapshot, one
// search's total (Result embeds it) or an experiment's sum (Add). Its JSON is
// the public `stats` wire object, so field order and tags must not change.
type EvalStats struct {
	// Trainings counts accuracy-predictor trainings (memoized networks are
	// never retrained).
	Trainings int `json:"trainings"`
	// HWRequests counts hardware evaluation requests; HWEvals the cost-model
	// + HAP computations actually performed (with the cache enabled,
	// HWRequests minus HWCacheHits minus the cheap resource-violation
	// short-circuits); HWCacheHits the requests served without
	// recomputation; HWDeduped the identical in-batch candidates a search
	// collapsed before worker fan-out.
	HWRequests  int `json:"hw_requests"`
	HWEvals     int `json:"hw_evals"`
	HWCacheHits int `json:"hw_cache_hits"`
	HWDeduped   int `json:"hw_deduped"`
	// LayerCostRequests counts cost-model queries seen by the per-layer
	// memo under buildProblem; LayerCostHits counts the queries it served
	// without running the MAESTRO model.
	LayerCostRequests int `json:"layer_cost_requests"`
	LayerCostHits     int `json:"layer_cost_hits"`
	// PrunedEpisodes counts a search's episodes (generations in EA mode)
	// whose training was skipped because no explored hardware was feasible.
	PrunedEpisodes int `json:"pruned_episodes"`
}

// Add folds o's counters into s.
func (s *EvalStats) Add(o EvalStats) {
	s.Trainings += o.Trainings
	s.HWRequests += o.HWRequests
	s.HWEvals += o.HWEvals
	s.HWCacheHits += o.HWCacheHits
	s.HWDeduped += o.HWDeduped
	s.LayerCostRequests += o.LayerCostRequests
	s.LayerCostHits += o.LayerCostHits
	s.PrunedEpisodes += o.PrunedEpisodes
}

// HWCacheHitPct returns the percentage of hardware requests served from the
// evaluation cache.
func (s EvalStats) HWCacheHitPct() float64 {
	return stats.Pct(int64(s.HWCacheHits), int64(s.HWRequests))
}

// LayerCostHitPct returns the percentage of cost-model queries served by the
// per-layer memo.
func (s EvalStats) LayerCostHitPct() float64 {
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
	m := cfg.Memos
	if m == nil {
		m = NewMemos(cfg.Cost)
	} else if m.cost != cfg.Cost {
		return nil, fmt.Errorf("core: memo bundle is bound to a different cost-model calibration")
	}
	e := &Evaluator{
		W: w, Cfg: cfg,
		accMemo: m.acc, hwCache: m.hw, layerMemo: m.layer,
		hwPrefix: fmt.Sprintf("%d,%g,%g|", w.Specs.LatencyCycles, w.Specs.EnergyNJ, w.Specs.AreaUM2),
	}
	e.Bounds = e.computeBounds()
	return e, nil
}

// workspace is one evaluation worker's reusable scratch for the
// mapping-and-scheduling path: the HAP solver state, the storage of the HAP
// problem it builds and the cache-key buffer. A warm workspace lets a cache
// hit allocate nothing and a miss allocate only the metrics it caches. It is
// not safe for concurrent use: the explorer gives each evalBatch worker slot
// its own.
type workspace struct {
	hap    sched.Workspace
	key    []byte
	active []int // the design's active sub-accelerators, in design order
	opts   []sched.Option
	layers []sched.Layer
	// chains are carved to the request's network count; every element up
	// to their capacity is named net0, net1, … once, when allocated.
	chains []sched.Chain
}

// appendHWKey appends the canonical cache key of one hardware evaluation to
// b: the evaluator's specs prefix, the design fingerprint and every
// network's memoization signature (the same identity the accuracy path keys
// on), '|'-separated.
func appendHWKey(b []byte, prefix string, nets []*dnn.Network, d accel.Design) []byte {
	b = append(b, prefix...)
	b = d.AppendFingerprint(b)
	for _, n := range nets {
		b = append(b, '|')
		b = append(b, n.Signature()...)
	}
	return b
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
	ws := new(workspace)
	const samples = 60
	for s := 0; s < samples; s++ {
		d := e.Cfg.HW.Random(rng)
		m, _ := e.hwEval(context.Background(), ws, nets, d, false) //lint:allow ctxplumb bounds sampling is small fixed work on the non-ctx construction path
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

// HWEvalCtx evaluates the hardware metrics of running the given networks on
// design d (mapping and scheduling via HAP under the latency spec). The
// context is checked on entry and polled by the HAP solver, so a cancelled
// or expired context aborts the evaluation promptly with ctx's error.
// Aborted computations are never cached. Each call solves on a fresh
// workspace; the explorer's batches reuse one per worker.
func (e *Evaluator) HWEvalCtx(ctx context.Context, nets []*dnn.Network, d accel.Design) (HWMetrics, error) {
	return e.hwEval(ctx, new(workspace), nets, d, true)
}

func (e *Evaluator) hwEval(ctx context.Context, ws *workspace, nets []*dnn.Network, d accel.Design, count bool) (HWMetrics, error) {
	if err := ctx.Err(); err != nil {
		return HWMetrics{}, err
	}
	if count {
		e.hwRequests.Inc()
	}
	if !e.Cfg.HW.Feasible(d) {
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
		return e.hwCompute(ctx, ws, nets, d)
	}
	ws.key = appendHWKey(ws.key[:0], e.hwPrefix, nets, d)
	m, avoided, err := e.hwCache.GetOrComputeErr(ws.key, func() (HWMetrics, error) {
		if count {
			e.hwComputes.Inc()
		}
		return e.hwCompute(ctx, ws, nets, d)
	})
	if err != nil {
		return HWMetrics{}, err
	}
	if avoided && count {
		e.hwHits.Inc()
	}
	return m, nil
}

// hwCompute runs the uncached mapping-and-scheduling path on ws: build the
// HAP cost table, solve the assignment, and size buffers and area. It is a
// pure function of (nets, d) given the evaluator's fixed workload and config,
// which is what makes the result cacheable and the search bit-deterministic
// across cache modes and worker counts. The metrics own their slices, so
// they stay valid after ws solves another problem. A done context aborts the
// solve and returns ctx's error; nothing partial escapes.
func (e *Evaluator) hwCompute(ctx context.Context, ws *workspace, nets []*dnn.Network, d accel.Design) (HWMetrics, error) {
	problem := e.buildProblem(ws, nets, d)

	_, res, err := ws.hap.HAP(ctx, problem)
	if err != nil {
		if ctx.Err() != nil {
			return HWMetrics{}, ctx.Err()
		}
		panic(fmt.Sprintf("core: HAP failed: %v", err))
	}

	buf := make([]int64, len(d.Subs))
	for ai, di := range ws.active {
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

// buildProblem assembles the HAP cost table for the given networks on the
// design's active sub-accelerators (recorded in ws.active) in ws's storage:
// exactly sized chains and layers, and every layer's options carved from
// one slice. The problem is valid until ws builds the next one. Every
// (layer, sub-accelerator) cost goes through the per-layer memo: repeated
// sub-accelerator configurations across designs skip the MAESTRO model
// entirely, and LayerCost is pure, so memoized results are bit-identical to
// recomputation. The memo's requests and hits are counted locally and added
// to the evaluator's counters once per call.
func (e *Evaluator) buildProblem(ws *workspace, nets []*dnn.Network, d accel.Design) sched.Problem {
	ws.active = d.AppendActive(ws.active[:0])
	na, total := len(ws.active), 0
	var reqs, hits int64
	for _, n := range nets {
		total += n.Depth()
	}
	if cap(ws.chains) < len(nets) {
		ws.chains = make([]sched.Chain, len(nets))
		for i := range ws.chains {
			ws.chains[i].Name = "net" + strconv.Itoa(i)
		}
	}
	ws.chains = ws.chains[:len(nets)]
	ws.opts = resize(ws.opts, total*na)
	ws.layers = resize(ws.layers, total)
	opts, layers := ws.opts, ws.layers
	for ni, n := range nets {
		ch := &ws.chains[ni]
		ch.Layers = layers[:0:n.Depth()]
		layers = layers[n.Depth():]
		for _, l := range n.Layers {
			if !l.Op.Compute() {
				continue
			}
			sl := sched.Layer{Name: l.Name, Options: opts[:na:na]}
			opts = opts[na:]
			for ai, di := range ws.active {
				sub := d.Subs[di]
				lc, hit := e.layerMemo.LayerCost(l, sub.DF, sub.PEs, sub.BW)
				reqs++
				if hit {
					hits++
				}
				sl.Options[ai] = sched.Option{
					Cycles:      lc.Cycles,
					EnergyNJ:    lc.EnergyNJ,
					BufferBytes: lc.BufferBytes,
				}
			}
			ch.Layers = append(ch.Layers, sl)
		}
	}
	e.layerReqs.Add(reqs)
	e.layerHits.Add(hits)
	return sched.Problem{NumAccels: na, Deadline: e.W.Specs.LatencyCycles, Chains: ws.chains}
}

// resize returns s with length n, reusing its backing array when that is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Schedule returns the concrete HAP schedule (problem, result, per-layer
// placements) of the networks on design d — the map() and sch() functions of
// §III-➌ made inspectable. It errors when the design violates resource
// limits.
func (e *Evaluator) Schedule(nets []*dnn.Network, d accel.Design) (sched.Problem, sched.Result, []sched.Placement, error) {
	if err := d.Validate(e.Cfg.HW.Limits); err != nil {
		return sched.Problem{}, sched.Result{}, nil, err
	}
	problem := e.buildProblem(new(workspace), nets, d)
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
	accs := make([]float64, len(nets))
	e.accuraciesInto(accs, nets)
	return accs
}

// accuraciesInto is Accuracies writing into accs, one entry per task.
func (e *Evaluator) accuraciesInto(accs []float64, nets []*dnn.Network) {
	if len(nets) != len(e.W.Tasks) {
		panic("core: network count mismatch")
	}
	for i, n := range nets {
		key := accKey{e.W.Tasks[i].Dataset, n.Signature()}
		q, ok := e.accMemo.lookup(key)
		if !ok {
			q = predictor.Accuracy(e.W.Tasks[i].Dataset, n)
			e.accMemo.store(key, q)
			e.trainings.Inc()
		}
		accs[i] = q
	}
}

// Reward computes Eq. (4): R = weighted(D) − ρ·P.
func (e *Evaluator) Reward(weighted, penalty float64) float64 {
	return weighted - e.Cfg.Rho*penalty
}

// EvalStats snapshots the evaluator's work counters. HWDeduped and
// PrunedEpisodes are search counters and stay zero here.
func (e *Evaluator) EvalStats() EvalStats {
	return EvalStats{
		Trainings:         int(e.trainings.Value()),
		HWRequests:        int(e.hwRequests.Value()),
		HWEvals:           int(e.hwComputes.Value()),
		HWCacheHits:       int(e.hwHits.Value()),
		LayerCostRequests: int(e.layerReqs.Value()),
		LayerCostHits:     int(e.layerHits.Value()),
	}
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
