// Package sched implements the mapper and scheduler of §IV-③: network layers
// (dependency chains, one per DNN) are assigned to sub-accelerators and
// ordered so that the workload's energy is minimized subject to a latency
// deadline. This is the heterogeneous assignment problem (HAP) of [28,29];
// the paper's Theorem reduces spec checking to HAP:
//
//	specs (LS, ES) are satisfiable  ⇔  HAP(D, AIC, LS) ≤ ES.
//
// The package provides the heuristic solver the paper uses (a Shao-style
// ratio-greedy refinement [29]) and an exhaustive solver for small instances
// that serves as the ILP-optimal reference in tests and ablations.
//
// The solvers are incremental: the problem is validated once per solve, every
// candidate assignment is simulated by the allocation-free min-heap engine in
// eval.go, energy-losing moves are screened out by an O(1) per-move option
// delta before any simulation runs, the exhaustive enumeration prunes with
// admissible energy/makespan bounds, and large scans fan out across a bounded
// worker pool with a deterministic reduction order. Results are bit-identical
// to the pre-rewrite solver (see differential_test.go).
//
// # Checkpointed move scans
//
// The heuristic's move scan additionally runs on a checkpointed simulator
// (eval.go). The lifecycle of one refinement round:
//
//  1. The round's baseline simulation of the current assignment records one
//     snapshot of the full simulator state (ready heap, per-chain/-accel
//     clocks, buffer maxima, running energy/makespan) per layer site, taken
//     just before that layer's event is popped for the first time — at that
//     point nothing simulated so far has read the layer's own assignment.
//  2. Each candidate move of layer L restores L's snapshot and replays only
//     the schedule's suffix under the scan's early-abort bounds; the shared
//     prefix is reused across the entire scan. Parallel scan workers carry
//     their own arena, rebuilt (incrementally) from their own baseline run.
//  3. Applying the round's winning move updates the arena in place:
//     snapshots captured before the moved layer's first pop stay valid, the
//     rest are re-captured by resuming from the moved layer's snapshot.
//
// The resumed replay performs the exact floating-point operations of a full
// simulation in the same order, so results — and the whole refinement
// trajectory — stay bit-identical (pinned by differential_test.go, which
// also runs the full per-move re-simulation the checkpoints replace).
//
// BranchAndBound shares the exhaustive enumeration's machinery (suffix
// min-energy/min-cycle bounds, bounded leaf simulation, shared best-energy
// bound, parallel prefix split) over its energy-spread branch order, with a
// node budget shared across workers.
package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Option is the cost of running one layer on one particular sub-accelerator.
type Option struct {
	Cycles      int64
	EnergyNJ    float64
	BufferBytes int64
}

// Layer is one schedulable unit with per-sub-accelerator costs; Options has
// one entry per active sub-accelerator, in design order.
type Layer struct {
	Name    string
	Options []Option
}

// Chain is a dependency chain of layers (one DNN); layer i must finish
// before layer i+1 starts.
type Chain struct {
	Name   string
	Layers []Layer
}

// Problem is a complete HAP instance.
type Problem struct {
	Chains    []Chain
	NumAccels int
	// Deadline is the latency spec LS in cycles.
	Deadline int64
	// tuning overrides the solver's parallel-scan thresholds and move-scan
	// simulation strategy; only the package's tests and benchmarks set it.
	tuning tuning
}

// tuning holds the solver's parallel-scan thresholds and the move-scan
// simulation strategy. Each field's zero value selects the package default;
// results are bit-identical for any setting because every parallel scan
// reduces in a deterministic order and the checkpointed simulator replays
// the exact floating-point operations of a full simulation. Tests force the
// parallel paths on small instances through it, and the checkpoint
// differentials and the CI before/after gate time the full-resimulation
// control against the checkpointed scan.
type tuning struct {
	// parallelMoveMin is the minimum number of candidate moves per
	// refinement round before Heuristic parallelizes the move scan.
	parallelMoveMin int
	// parallelExhaustMin is the minimum enumeration size before Exhaustive
	// (and BranchAndBound) split the assignment space across workers.
	parallelExhaustMin int
	// maxWorkers bounds the worker pool of one solve.
	maxWorkers int
	// disableCheckpoints turns off the checkpointed move-scan simulator, so
	// every candidate move replays the whole schedule instead of resuming
	// from the moved layer's snapshot.
	disableCheckpoints bool
}

func (t tuning) moveMin() int {
	if t.parallelMoveMin > 0 {
		return t.parallelMoveMin
	}
	return parallelMoveMin
}

func (t tuning) exhaustMin() int {
	if t.parallelExhaustMin > 0 {
		return t.parallelExhaustMin
	}
	return parallelExhaustMin
}

func (t tuning) workers() int {
	if t.maxWorkers > 0 {
		return t.maxWorkers
	}
	return maxSolverWorkers
}

// Validate checks structural consistency.
func (p Problem) Validate() error {
	if p.NumAccels <= 0 {
		return fmt.Errorf("sched: need at least one sub-accelerator")
	}
	if len(p.Chains) == 0 {
		return fmt.Errorf("sched: no chains")
	}
	for _, c := range p.Chains {
		if len(c.Layers) == 0 {
			return fmt.Errorf("sched: chain %s is empty", c.Name)
		}
		for _, l := range c.Layers {
			if len(l.Options) != p.NumAccels {
				return fmt.Errorf("sched: layer %s has %d options, want %d",
					l.Name, len(l.Options), p.NumAccels)
			}
			for j, o := range l.Options {
				if o.Cycles <= 0 || o.EnergyNJ < 0 {
					return fmt.Errorf("sched: layer %s option %d has invalid cost %+v", l.Name, j, o)
				}
			}
		}
	}
	return nil
}

// Size returns the total number of layers.
func (p Problem) Size() int {
	n := 0
	for _, c := range p.Chains {
		n += len(c.Layers)
	}
	return n
}

// Assignment maps [chain][layer] to a sub-accelerator index.
type Assignment [][]int

// clone deep-copies the assignment.
func (a Assignment) clone() Assignment {
	out := make(Assignment, len(a))
	for i, row := range a {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// copyFrom copies src's values into a (rows must match in shape).
func (a Assignment) copyFrom(src Assignment) {
	for i, row := range src {
		copy(a[i], row)
	}
}

// Result is an evaluated schedule.
type Result struct {
	Assign   Assignment
	Makespan int64
	EnergyNJ float64
	// BufferDemand[j] is the largest buffer requirement among the layers
	// assigned to sub-accelerator j (0 if none) — it sizes that
	// sub-accelerator's global buffer for the area model.
	BufferDemand []int64
	// Feasible reports Makespan <= Deadline.
	Feasible bool
}

// Evaluate computes makespan, energy and buffer demand of assignment a under
// the paper's sch() policy: an event-driven list schedule that always starts
// the ready layer with the earliest possible start time (ties resolve to the
// lower chain index). Energy is order-independent; makespan is not.
func Evaluate(p Problem, a Assignment) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.checkAssignment(a); err != nil {
		return Result{}, err
	}
	ev := newEvaluator(&p)
	ev.run(a, nil)
	// The returned Assign is detached from the caller's (possibly scratch)
	// slice so Result snapshots stay valid after further mutation.
	return ev.result(a), nil
}

// minLatencyAssignment assigns every layer to its fastest sub-accelerator.
func minLatencyAssignment(p Problem) Assignment {
	a := make(Assignment, len(p.Chains))
	for ci, c := range p.Chains {
		a[ci] = make([]int, len(c.Layers))
		for li, l := range c.Layers {
			best, bc := 0, l.Options[0].Cycles
			for j := 1; j < len(l.Options); j++ {
				if l.Options[j].Cycles < bc {
					best, bc = j, l.Options[j].Cycles
				}
			}
			a[ci][li] = best
		}
	}
	return a
}

// Default solver parallelism bounds (overridable per Problem via tuning).
// Small instances (the ones inside the RL search loop, which already fans
// episodes out across core's worker pool) stay sequential; only scans big
// enough to amortize goroutine startup fan out.
const (
	// parallelMoveMin is the default minimum number of candidate moves per
	// refinement round before Heuristic parallelizes the move scan. Retuned
	// from the original single-core value of 128: with the checkpointed
	// simulator a candidate move costs roughly half a simulation, while a
	// parallel round costs each worker one goroutine spawn plus one
	// checkpointed baseline run (~one full simulation). The break-even on the
	// bench instances is ~3 full simulations of margin per worker, which a
	// 48-move round clears with the default 4-8 worker pool — so the medium
	// benchmark instance (72 moves/round) now fans out on multi-core hosts
	// instead of staying sequential.
	parallelMoveMin = 48
	// parallelExhaustMin is the default minimum enumeration size before
	// Exhaustive splits the assignment space across workers.
	parallelExhaustMin = 1 << 14
	// maxSolverWorkers is the default bound on the worker pool of one solve.
	maxSolverWorkers = 8
)

// solverWorkers picks the worker count for a scan of `units` independent
// work items under the given pool bound.
func solverWorkers(units, max int) int {
	w := runtime.GOMAXPROCS(0)
	if w > max {
		w = max
	}
	if w > units {
		w = units
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ctxCheckNodes is how many enumeration nodes the exhaustive solver visits
// between context-cancellation checks.
const ctxCheckNodes = 1 << 10

// energySlack bounds the float64 discrepancy between the O(1) option-energy
// delta of a single-layer move and the full-sum delta the solver's decision
// arithmetic is defined on (two schedule-order sums differing in one term).
// The true discrepancy is at most a few n·ulp(ΣEnergy) ≈ 1e-13·ΣEnergy; the
// 1e-9 relative slack dominates it by orders of magnitude while remaining
// far below any physically meaningful energy difference, so screening with
// this margin never changes a decision the exact arithmetic would make.
func energySlack(e float64) float64 { return 1e-9 * (1 + math.Abs(e)) }

// site is one movable layer position.
type site struct{ ci, li int }

// move is one candidate single-layer reassignment, scored for the phase the
// scan ran in (makespan for phase 1, energy/latency ratio for phase 2).
type move struct {
	ok        bool
	ci, li, j int
	mk        int64
	ratio     float64
}

// moveScratch is one scan worker's private state: a scratch assignment, an
// evaluator, and (when checkpointing is on) the worker's own checkpoint
// arena, rebuilt from the round's baseline at the start of its chunk.
type moveScratch struct {
	a   Assignment
	ev  *evaluator
	ck  *ckpts
	gen int // move generation the arena reflects (-1: never built)
}

// hsolver carries the scratch state of one Heuristic solve.
type hsolver struct {
	p     *Problem
	ctx   context.Context
	a     Assignment
	ev    *evaluator
	ck    *ckpts // non-nil when the checkpointed move scan is enabled
	sites []site
	curMk int64
	curE  float64
	// bufDemand caches the last refresh's buffer demand, so result() can
	// snapshot without re-simulating (scans leave the evaluator holding the
	// last candidate's state, not the current assignment's).
	bufDemand []int64

	// gen counts applied moves and lastMove is the flat site index of the
	// latest one (-1 before any): together they let refresh and the scan
	// workers update their checkpoint arenas incrementally instead of
	// re-simulating the whole assignment each round.
	gen      int
	lastMove int

	// aborted latches a mid-scan context cancellation; every scan worker
	// polls it (and ctx) per site, so a cancelled solve unwinds promptly
	// with the partial best instead of finishing the round.
	aborted atomic.Bool

	workers []*moveScratch // lazily built for parallel scans
	chunks  []move
}

// refresh re-simulates the current assignment and caches its metrics; with
// checkpointing on, the same single simulation also records the per-site
// snapshots the round's sequential move scan resumes from, and after the
// first round it resumes from the applied move's own snapshot instead of
// replaying the whole schedule.
func (s *hsolver) refresh() {
	if s.ck != nil {
		s.ev.resumeCheckpointed(s.a, s.lastMove, s.ck)
	} else {
		s.ev.run(s.a, nil)
	}
	s.curMk = s.ev.makespan
	s.curE = s.ev.energy
	s.bufDemand = append(s.bufDemand[:0], s.ev.buf...)
}

// result snapshots the current assignment from the metrics the last refresh
// cached; scans since then only touched candidate state.
func (s *hsolver) result() Result {
	return Result{
		Assign:       s.a.clone(),
		Makespan:     s.curMk,
		EnergyNJ:     s.curE,
		BufferDemand: append([]int64(nil), s.bufDemand...),
		Feasible:     s.curMk <= s.p.Deadline,
	}
}

// scanRange evaluates every single-layer move whose site index lies in
// [lo, hi) against the current schedule, using the given scratch assignment
// (a copy of s.a that is mutated and restored in place), evaluator and
// checkpoint arena (nil for full re-simulation). It returns the range's best
// move under the phase's decision rule, with ties resolved to the first move
// in (chain, layer, accelerator) scan order — exactly the original solver's
// scan semantics. The scan polls ctx once per site; on cancellation it
// latches s.aborted and returns the partial best of its range.
func (s *hsolver) scanRange(phase1 bool, lo, hi int, a Assignment, ev *evaluator, ck *ckpts) move {
	p := s.p
	best := move{mk: s.curMk} // phase 1: only strictly smaller makespans qualify
	// O(1) screen threshold: moves whose order-independent option delta
	// cannot reach the acceptance threshold even after the worst-case
	// full-sum discrepancy are skipped without simulating.
	screen := 1e-12 - energySlack(s.curE)
	// Phase 2 candidates must meet the deadline and strictly lower the
	// energy; simulations abort as soon as either is impossible. Both
	// bounds are exact rejections, not approximations (see runBounded).
	deadlineBound := incClamp(p.Deadline)
	for si := lo; si < hi; si++ {
		if s.aborted.Load() {
			return best
		}
		if s.ctx.Err() != nil {
			s.aborted.Store(true)
			return best
		}
		ci, li := s.sites[si].ci, s.sites[si].li
		row := a[ci]
		orig := row[li]
		opts := ev.opts[ci][li]
		for j := 0; j < p.NumAccels; j++ {
			if j == orig {
				continue
			}
			if phase1 {
				row[li] = j
				var ok bool
				if ck != nil {
					ok = ev.resumeBounded(a, si, ck, best.mk, math.Inf(1))
				} else {
					ok = ev.runBounded(a, best.mk, math.Inf(1), nil)
				}
				row[li] = orig
				if ok && ev.makespan < best.mk {
					best = move{ok: true, ci: ci, li: li, j: j, mk: ev.makespan}
				}
				continue
			}
			if opts[orig].EnergyNJ-opts[j].EnergyNJ <= screen {
				continue
			}
			row[li] = j
			var ok bool
			if ck != nil {
				ok = ev.resumeBounded(a, si, ck, deadlineBound, s.curE)
			} else {
				ok = ev.runBounded(a, deadlineBound, s.curE, nil)
			}
			row[li] = orig
			if !ok || ev.makespan > p.Deadline {
				continue
			}
			// Exact decision arithmetic: the candidate's energy is the full
			// schedule-order sum, so dE and the ratio are bit-identical to
			// the pre-rewrite solver's.
			dE := s.curE - ev.energy
			if dE <= 1e-12 {
				continue
			}
			dT := float64(ev.makespan - s.curMk)
			if dT < 1 {
				dT = 1
			}
			if r := dE / dT; !best.ok || r > best.ratio {
				best = move{ok: true, ci: ci, li: li, j: j, mk: ev.makespan, ratio: r}
			}
		}
	}
	return best
}

// incClamp returns x+1 without overflowing.
func incClamp(x int64) int64 {
	if x == math.MaxInt64 {
		return x
	}
	return x + 1
}

// scan finds the best move of one refinement round, fanning out across
// workers when the scan is large enough. The chunk reduction folds in site
// order, so the selected move is identical for any worker count. With
// checkpointing on, each worker re-derives the round's checkpoint arena from
// its own baseline simulation of the current assignment — one full run per
// worker per round, amortized across its chunk of resumed moves.
func (s *hsolver) scan(phase1 bool) move {
	nSites := len(s.sites)
	nw := solverWorkers(nSites, s.p.tuning.workers())
	if nSites*(s.p.NumAccels-1) < s.p.tuning.moveMin() || nw < 2 {
		return s.scanRange(phase1, 0, nSites, s.a, s.ev, s.ck)
	}
	if s.workers == nil {
		s.workers = make([]*moveScratch, nw)
		for w := range s.workers {
			ws := &moveScratch{a: s.a.clone(), ev: newEvaluator(s.p), gen: -1}
			if s.ck != nil {
				ws.ck = newCkpts(s.p)
			}
			s.workers[w] = ws
		}
		s.chunks = make([]move, nw)
	}
	per := (nSites + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * per
		hi := lo + per
		if hi > nSites {
			hi = nSites
		}
		if lo >= hi {
			s.chunks[w] = move{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ws := s.workers[w]
			ws.a.copyFrom(s.a)
			if ws.ck != nil {
				switch {
				case ws.gen == s.gen:
					// Arena already reflects s.a (round without a move).
				case ws.gen == s.gen-1 && s.lastMove >= 0:
					// Exactly one move behind: reuse the shared prefix.
					ws.ev.resumeCheckpointed(ws.a, s.lastMove, ws.ck)
				default:
					ws.ev.runCheckpointed(ws.a, ws.ck)
				}
				ws.gen = s.gen
			}
			s.chunks[w] = s.scanRange(phase1, lo, hi, ws.a, ws.ev, ws.ck)
		}(w, lo, hi)
	}
	wg.Wait()
	best := move{}
	for _, m := range s.chunks {
		if !m.ok {
			continue
		}
		if !best.ok || (phase1 && m.mk < best.mk) || (!phase1 && m.ratio > best.ratio) {
			best = m
		}
	}
	return best
}

// Heuristic solves the HAP instance with the paper's accelerated approach
// [29]: seed with the minimum-latency assignment, then greedily apply the
// single-layer move with the best energy-saving-per-latency-cost ratio while
// the deadline still holds. If even the seed misses the deadline, it
// performs makespan-reducing moves first (load balancing) before optimizing
// energy. The returned Result reports Feasible=false when no deadline-
// meeting schedule was found.
func Heuristic(p Problem) (Result, error) {
	return HeuristicCtx(context.Background(), p) //lint:allow ctxplumb compat shim: non-ctx public API delegates to the ctx variant
}

// HeuristicCtx is Heuristic with cooperative cancellation: the solver polls
// ctx between refinement rounds and once per site inside every move scan
// (parallel scan workers included). Once ctx is done it stops promptly and
// returns the best assignment refined so far — a valid, fully evaluated
// partial result — together with ctx's error; a cancellation before any
// refinement started returns the zero Result. Each call builds its own
// solver state and checkpoint arenas, so an aborted solve can never leak
// stale checkpoints into a later call. Uncancelled solves are bit-identical
// to Heuristic.
func HeuristicCtx(ctx context.Context, p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := &hsolver{p: &p, ctx: ctx, ev: newEvaluator(&p), a: minLatencyAssignment(p), lastMove: -1}
	if !p.tuning.disableCheckpoints {
		s.ck = newCkpts(&p)
	}
	for ci, c := range p.Chains {
		for li := range c.Layers {
			s.sites = append(s.sites, site{ci, li})
		}
	}
	s.refresh()
	apply := func(m move) {
		s.a[m.ci][m.li] = m.j
		s.lastMove = s.ev.siteBase[m.ci] + m.li
		s.gen++
		s.refresh()
	}

	// Phase 1: if infeasible, try to shorten the makespan by moving layers
	// off the critical (busiest) accelerator.
	for s.curMk > p.Deadline {
		if err := ctx.Err(); err != nil {
			return s.result(), err
		}
		m := s.scan(true)
		if s.aborted.Load() {
			return s.result(), ctx.Err()
		}
		if !m.ok {
			break
		}
		apply(m)
	}
	if s.curMk > p.Deadline {
		return s.result(), nil
	}

	// Phase 2: ratio-greedy energy refinement under the deadline.
	for {
		if err := ctx.Err(); err != nil {
			return s.result(), err
		}
		m := s.scan(false)
		if s.aborted.Load() {
			return s.result(), ctx.Err()
		}
		if !m.ok {
			break
		}
		apply(m)
	}
	return s.result(), nil
}

// MaxExhaustiveSize bounds the instance size Exhaustive accepts
// (NumAccels^Size assignments are enumerated).
const MaxExhaustiveSize = 1 << 20

// exhaustPre holds the per-position precomputation shared by every
// enumeration worker: the (chain, layer) of each branch position and the
// admissible remainder bounds (minimum energy / per-chain minimum cycles
// over all positions below k). Positions are branched from n-1 down, so
// position order determines both the enumeration order of the leaves and
// which layers the suffix bounds cover; Exhaustive uses the chain-major flat
// order, BranchAndBound its spread-sorted branch order.
type exhaustPre struct {
	n       int
	chainOf []int
	layerOf []int
	// sufMinE[k] is the summed minimum option energy of positions < k.
	sufMinE []float64
	// chainRem[k][ci] is the summed minimum option cycles of chain ci's
	// positions < k.
	chainRem [][]int64
}

func newExhaustPre(p *Problem) *exhaustPre {
	n := p.Size()
	chainOf := make([]int, n)
	layerOf := make([]int, n)
	k := 0
	for ci, c := range p.Chains {
		for li := range c.Layers {
			chainOf[k] = ci
			layerOf[k] = li
			k++
		}
	}
	return newExhaustPreFrom(p, chainOf, layerOf)
}

// newExhaustPreFrom builds the suffix bounds for an arbitrary position
// permutation (chainOf[k], layerOf[k] is the layer branched at position k).
func newExhaustPreFrom(p *Problem, chainOf, layerOf []int) *exhaustPre {
	n := len(chainOf)
	pre := &exhaustPre{
		n:       n,
		chainOf: chainOf,
		layerOf: layerOf,
		sufMinE: make([]float64, n+1),
		chainRem: func() [][]int64 {
			m := make([][]int64, n+1)
			flat := make([]int64, (n+1)*len(p.Chains))
			for k := range m {
				m[k] = flat[k*len(p.Chains) : (k+1)*len(p.Chains)]
			}
			return m
		}(),
	}
	for k := 0; k < n; k++ {
		opts := p.Chains[pre.chainOf[k]].Layers[pre.layerOf[k]].Options
		minE := opts[0].EnergyNJ
		minC := opts[0].Cycles
		for _, o := range opts[1:] {
			if o.EnergyNJ < minE {
				minE = o.EnergyNJ
			}
			if o.Cycles < minC {
				minC = o.Cycles
			}
		}
		pre.sufMinE[k+1] = pre.sufMinE[k] + minE
		copy(pre.chainRem[k+1], pre.chainRem[k])
		pre.chainRem[k+1][pre.chainOf[k]] += minC
	}
	return pre
}

// nodeBudget is the shared node allowance of one budgeted (BranchAndBound)
// search. Workers claim allowance in chunks, so the total nodes explored
// never exceed the budget for any worker count; hit latches the first failed
// claim — the search wanted more nodes than the budget allowed.
type nodeBudget struct {
	remaining atomic.Int64
	hit       atomic.Bool
}

func newNodeBudget(n int64) *nodeBudget {
	b := &nodeBudget{}
	b.remaining.Store(n)
	return b
}

func (b *nodeBudget) claim(n int64) int64 {
	for {
		r := b.remaining.Load()
		if r <= 0 {
			b.hit.Store(true)
			return 0
		}
		if n > r {
			n = r
		}
		if b.remaining.CompareAndSwap(r, r-n) {
			return n
		}
	}
}

// exhaustShared is the cross-worker pruning state: whether any feasible leaf
// exists yet and the best feasible energy published so far. Reading a stale
// value only weakens pruning; the admissible bounds plus the energySlack
// margin guarantee no would-be winner is ever pruned, so the final fold is
// deterministic for any worker count.
type exhaustShared struct {
	feasible atomic.Bool
	bestBits atomic.Uint64 // math.Float64bits of the best feasible energy
}

func newExhaustShared() *exhaustShared {
	s := &exhaustShared{}
	s.bestBits.Store(math.Float64bits(math.Inf(1)))
	return s
}

func (s *exhaustShared) publish(e float64) {
	for {
		old := s.bestBits.Load()
		if math.Float64frombits(old) <= e {
			break
		}
		if s.bestBits.CompareAndSwap(old, math.Float64bits(e)) {
			break
		}
	}
	s.feasible.Store(true)
}

func (s *exhaustShared) snapshot() (bool, float64) {
	if !s.feasible.Load() {
		return false, 0
	}
	return true, math.Float64frombits(s.bestBits.Load())
}

// exhaustState is one worker's depth-first enumeration state.
type exhaustState struct {
	ctx       context.Context
	p         *Problem
	pre       *exhaustPre
	ev        *evaluator
	flat      []int
	a         Assignment
	chainLoad []int64
	accelLoad []int64

	best         Result
	haveFeasible bool
	have         bool
	shared       *exhaustShared

	// nodes counts dfs entries; every ctxCheckNodes of them the ctx is
	// polled and aborted is latched, unwinding the recursion promptly.
	nodes   int
	aborted bool

	// budget, when non-nil, bounds the dfs entries across every worker of
	// the search (BranchAndBound); quota is this worker's locally claimed
	// allowance and budgetHit latches exhaustion, unwinding the recursion.
	budget     *nodeBudget
	quota      int64
	claimChunk int64
	budgetHit  bool
}

func newExhaustState(ctx context.Context, p *Problem, pre *exhaustPre, shared *exhaustShared) *exhaustState {
	st := &exhaustState{
		ctx:       ctx,
		p:         p,
		pre:       pre,
		ev:        newEvaluator(p),
		flat:      make([]int, pre.n),
		a:         make(Assignment, len(p.Chains)),
		chainLoad: make([]int64, len(p.Chains)),
		accelLoad: make([]int64, p.NumAccels),
		shared:    shared,
	}
	k := 0
	for ci, c := range p.Chains {
		st.a[ci] = st.flat[k : k+len(c.Layers)]
		k += len(c.Layers)
	}
	return st
}

func (s *exhaustState) reset() {
	for i := range s.chainLoad {
		s.chainLoad[i] = 0
	}
	for i := range s.accelLoad {
		s.accelLoad[i] = 0
	}
	s.best = Result{}
	s.haveFeasible = false
	s.have = false
}

// leaf evaluates the completed assignment with the original running-minimum
// selection rule: first-enumerated minimum-energy feasible schedule, else
// first-enumerated minimum-makespan schedule. The simulation aborts early
// once the leaf provably cannot be selected — past the deadline with a
// feasible best in hand (or past both the deadline and the fallback
// makespan before one), or at the best feasible energy — which rejects the
// leaf exactly as the full comparison would.
func (s *exhaustState) leaf() {
	mkBound := int64(math.MaxInt64)
	eBound := math.Inf(1)
	if s.haveFeasible {
		mkBound = incClamp(s.p.Deadline)
		eBound = s.best.EnergyNJ
	} else if s.have {
		mkBound = incClamp(s.p.Deadline)
		if s.best.Makespan > mkBound {
			mkBound = s.best.Makespan
		}
	}
	if !s.ev.runBounded(s.a, mkBound, eBound, nil) {
		s.have = true
		return
	}
	mk, en := s.ev.makespan, s.ev.energy
	switch {
	case mk <= s.p.Deadline && (!s.haveFeasible || en < s.best.EnergyNJ):
		s.best = s.ev.result(s.a)
		s.haveFeasible = true
		s.shared.publish(en)
	case !s.haveFeasible && (!s.have || mk < s.best.Makespan):
		s.best = s.ev.result(s.a)
	}
	s.have = true
}

// dfs enumerates positions pos..0 (most-significant digit first, so leaves
// appear in exactly the original flat-index enumeration order) and prunes
// subtrees that provably cannot change the outcome:
//
//   - once any feasible leaf exists, subtrees whose integer makespan lower
//     bound exceeds the deadline (all leaves infeasible) or whose energy
//     lower bound cannot beat the best feasible energy (with the energySlack
//     float margin, so a true winner is never cut);
//   - before one exists, subtrees that are provably infeasible and cannot
//     improve the running minimum-makespan fallback (integer-exact).
func (s *exhaustState) dfs(pos int, eSoFar float64) {
	if s.aborted || s.budgetHit {
		return
	}
	if s.budget != nil && !s.takeNode() {
		return
	}
	s.nodes++
	if s.nodes%ctxCheckNodes == 0 && s.ctx.Err() != nil {
		s.aborted = true
		return
	}
	if pos < 0 {
		s.leaf()
		return
	}
	pre := s.pre
	ci := pre.chainOf[pos]
	li := pre.layerOf[pos]
	opts := s.ev.opts[ci][li]
	rem := pre.chainRem[pos]
	for j := range opts {
		o := &opts[j]
		lb := s.chainLoad[ci] + o.Cycles + rem[ci]
		if al := s.accelLoad[j] + o.Cycles; al > lb {
			lb = al
		}
		if feasible, bestE := s.shared.snapshot(); feasible {
			if lb > s.p.Deadline {
				continue
			}
			if eSoFar+o.EnergyNJ+pre.sufMinE[pos] >= bestE+energySlack(bestE) {
				continue
			}
		} else if lb > s.p.Deadline && s.have && lb >= s.best.Makespan {
			continue
		}
		s.a[ci][li] = j
		s.chainLoad[ci] += o.Cycles
		s.accelLoad[j] += o.Cycles
		s.dfs(pos-1, eSoFar+o.EnergyNJ)
		s.accelLoad[j] -= o.Cycles
		s.chainLoad[ci] -= o.Cycles
	}
}

// takeNode consumes one node of the shared budget, claiming allowance in
// chunks to keep the shared counter off the hot path; false latches
// budgetHit.
func (s *exhaustState) takeNode() bool {
	if s.quota == 0 {
		s.quota = s.budget.claim(s.claimChunk)
		if s.quota == 0 {
			s.budgetHit = true
			return false
		}
	}
	s.quota--
	return true
}

// Exhaustive enumerates every assignment and returns the minimum-energy
// schedule meeting the deadline, or — when none is feasible — the schedule
// with the smallest makespan. It is the optimal reference standing in for
// the paper's ILP formulation; it returns an error when the instance is too
// large (NumAccels^layers > MaxExhaustiveSize). Enumeration prunes with
// admissible bounds and fans out across workers on large instances; both are
// outcome-preserving, so the result is identical to the plain enumeration.
func Exhaustive(p Problem) (Result, error) {
	return ExhaustiveCtx(context.Background(), p) //lint:allow ctxplumb compat shim: non-ctx public API delegates to the ctx variant
}

// ExhaustiveCtx is Exhaustive with cooperative cancellation: workers poll ctx
// every ctxCheckNodes dfs entries (and before claiming each enumeration
// prefix) and the call returns ctx's error once it is done. Uncancelled
// solves are bit-identical to Exhaustive.
func ExhaustiveCtx(ctx context.Context, p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := p.Size()
	total := 1
	for i := 0; i < n; i++ {
		total *= p.NumAccels
		if total > MaxExhaustiveSize {
			return Result{}, fmt.Errorf("sched: instance too large for exhaustive search (%d layers, %d accelerators)", n, p.NumAccels)
		}
	}
	pre := newExhaustPre(&p)
	if nw := solverWorkers(total, p.tuning.workers()); total >= p.tuning.exhaustMin() && nw >= 2 {
		res, _, err := exhaustParallel(ctx, &p, pre, nw, nil)
		if err != nil {
			return Result{}, err
		}
		return res, nil
	}
	st := newExhaustState(ctx, &p, pre, newExhaustShared())
	st.dfs(n-1, 0)
	if st.aborted {
		return Result{}, ctx.Err()
	}
	return st.best, nil
}

// exhaustParallel splits the enumeration over the top assignment digits and
// folds the per-prefix results in prefix (= enumeration) order, reproducing
// the sequential running-minimum selection exactly. A non-nil budget bounds
// the dfs nodes across all workers (BranchAndBound); once it is exhausted the
// workers record whatever their prefixes found so far and unwind. On
// cancellation every worker stops claiming prefixes, unwinds, and the call
// returns ctx's error with no goroutines left behind. The second return
// reports whether any leaf was evaluated.
func exhaustParallel(ctx context.Context, p *Problem, pre *exhaustPre, nw int, budget *nodeBudget) (Result, bool, error) {
	k := p.NumAccels
	pd, prefixes := 0, 1
	for prefixes < 4*nw && pd < pre.n {
		pd++
		prefixes *= k
	}
	type summary struct {
		best         Result
		haveFeasible bool
		have         bool
	}
	sums := make([]summary, prefixes)
	shared := newExhaustShared()
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newExhaustState(ctx, p, pre, shared)
			st.budget = budget
			st.claimChunk = parallelBudgetChunk
			for {
				pi := int(next.Add(1) - 1)
				if pi >= prefixes {
					return
				}
				if ctx.Err() != nil {
					aborted.Store(true)
					return
				}
				if st.budgetHit {
					return
				}
				st.reset()
				eSoFar := 0.0
				for t, v := 0, pi; t < pd; t, v = t+1, v/k {
					pos := pre.n - pd + t
					j := v % k
					o := &st.ev.opts[pre.chainOf[pos]][pre.layerOf[pos]][j]
					st.a[pre.chainOf[pos]][pre.layerOf[pos]] = j
					st.chainLoad[pre.chainOf[pos]] += o.Cycles
					st.accelLoad[j] += o.Cycles
					eSoFar += o.EnergyNJ
				}
				st.dfs(pre.n-pd-1, eSoFar)
				if st.aborted {
					aborted.Store(true)
					return
				}
				// Recorded even when the budget ran out mid-prefix: the
				// truncated search still returns its best leaf found.
				sums[pi] = summary{best: st.best, haveFeasible: st.haveFeasible, have: st.have}
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return Result{}, false, ctx.Err()
	}

	var best Result
	haveFeasible, have := false, false
	for _, s := range sums {
		if !s.have {
			continue
		}
		switch {
		case s.haveFeasible && (!haveFeasible || s.best.EnergyNJ < best.EnergyNJ):
			best = s.best
			haveFeasible = true
		case !s.haveFeasible && !haveFeasible && (!have || s.best.Makespan < best.Makespan):
			best = s.best
		}
		have = true
	}
	return best, have, nil
}

// parallelBudgetChunk is the node allowance a budgeted parallel worker claims
// from the shared budget at a time: large enough to keep the shared atomic
// off the per-node path, small enough that the budget still bounds the total
// within a fraction of a percent of typical nodeBudget values.
const parallelBudgetChunk = 1 << 10

// HAP is the paper's solver function re = HAP(D, AIC, LS): it returns the
// minimum energy achievable under deadline p.Deadline, +Inf when no feasible
// schedule exists. It dispatches to Exhaustive for small instances and the
// heuristic otherwise.
func HAP(p Problem) (float64, Result, error) {
	return HAPCtx(context.Background(), p) //lint:allow ctxplumb compat shim: non-ctx public API delegates to the ctx variant
}

// HAPCtx is HAP with cooperative cancellation (see HeuristicCtx and
// ExhaustiveCtx); it returns ctx's error once ctx is done. Uncancelled
// solves are bit-identical to HAP.
func HAPCtx(ctx context.Context, p Problem) (float64, Result, error) {
	var (
		res Result
		err error
	)
	if canExhaust(p) {
		res, err = ExhaustiveCtx(ctx, p)
	} else {
		res, err = HeuristicCtx(ctx, p)
	}
	if err != nil {
		return 0, Result{}, err
	}
	if !res.Feasible {
		return math.Inf(1), res, nil
	}
	return res.EnergyNJ, res, nil
}

func canExhaust(p Problem) bool {
	total := 1
	for i := 0; i < p.Size(); i++ {
		total *= p.NumAccels
		if total > 4096 { // keep the exact path fast inside the search loop
			return false
		}
	}
	return true
}
