// Package sched implements the mapper and scheduler of §IV-③: network layers
// (dependency chains, one per DNN) are assigned to sub-accelerators and
// ordered so that the workload's energy is minimized subject to a latency
// deadline. This is the heterogeneous assignment problem (HAP) of [28,29];
// the paper's Theorem reduces spec checking to HAP:
//
//	specs (LS, ES) are satisfiable  ⇔  HAP(D, AIC, LS) ≤ ES.
//
// The package provides the two solvers HAP dispatches to: the heuristic the
// paper uses (a Shao-style ratio-greedy refinement [29]) and an exhaustive
// solver for small instances that stands in for the paper's ILP. Beyond
// ExhaustiveCtx's range, the test-only branch-and-bound in bnb_reference_test.go
// is the exact oracle the heuristic is checked against.
//
// The solvers are incremental: the problem is validated once per solve, every
// candidate assignment is simulated by the allocation-free engine in
// eval.go (one ready-time key per chain, next layer by argmin), energy-losing
// moves are screened out by an O(1) per-move option delta before any
// simulation runs, and the exhaustive enumeration prunes with admissible
// energy/makespan bounds. Every solve is sequential; internal/core runs the
// solves of each evaluation batch in parallel.
// Results are bit-identical to the pre-rewrite solver (see
// differential_test.go).
//
// # Checkpointed move scans
//
// The heuristic's move scan runs on a checkpointed simulator (eval.go). The
// lifecycle of one refinement round:
//
//  1. The round's baseline simulation of the current assignment records one
//     snapshot of the full simulator state (per-chain keys and clocks,
//     per-accelerator clocks, buffer maxima, running energy/makespan) per
//     layer site, taken just before that layer is selected for the first
//     time — at that point nothing simulated so far has read the layer's own
//     assignment.
//  2. Each candidate move of layer L restores L's snapshot and replays only
//     the schedule's suffix under the scan's early-abort bounds; the shared
//     prefix is reused across the entire scan.
//  3. Applying the round's winning move updates the arena in place:
//     snapshots captured before the moved layer's first selection stay
//     valid, the rest are re-captured by resuming from the moved layer's
//     snapshot.
//
// The resumed replay performs the exact floating-point operations of a full
// simulation in the same order, so results — and the whole refinement
// trajectory — stay bit-identical (pinned by differential_test.go, which
// also runs the test-only full per-move re-simulation the checkpoints
// replace, from reference_test.go).
package sched

import (
	"context"
	"fmt"
	"math"
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

// hsolver carries the scratch state of one HeuristicCtx solve.
type hsolver struct {
	p     *Problem
	ctx   context.Context
	a     Assignment
	ev    *evaluator
	ck    *ckpts
	sites []site
	curMk int64
	curE  float64
	// bufDemand caches the last refresh's buffer demand, so result() can
	// snapshot without re-simulating (scans leave the evaluator holding the
	// last candidate's state, not the current assignment's).
	bufDemand []int64

	// lastMove is the flat site index of the latest applied move (-1
	// before any): it lets refresh update the checkpoint arena
	// incrementally instead of re-simulating the whole assignment.
	lastMove int

	// aborted latches a mid-scan context cancellation, polled per site, so
	// a cancelled solve unwinds promptly with the partial best instead of
	// finishing the round.
	aborted bool
}

// refresh re-simulates the current assignment and caches its metrics; the
// same single simulation also records the per-site snapshots the round's
// move scan resumes from, and after the first round it resumes from the
// applied move's own snapshot instead of replaying the whole schedule.
func (s *hsolver) refresh() {
	s.ev.resumeCheckpointed(s.a, s.lastMove, s.ck)
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

// scan evaluates every single-layer move against the current schedule,
// resuming each candidate from its site's checkpoint (s.a is mutated and
// restored in place). It returns the best move under the phase's decision
// rule, with ties resolved to the first move in (chain, layer, accelerator)
// scan order — exactly the original solver's scan semantics. The scan polls
// ctx once per site; on cancellation it latches s.aborted and returns the
// partial best.
func (s *hsolver) scan(phase1 bool) move {
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
	a, ev, ck := s.a, s.ev, s.ck
	for si, st := range s.sites {
		if s.ctx.Err() != nil {
			s.aborted = true
			return best
		}
		ci, li := st.ci, st.li
		row := a[ci]
		orig := row[li]
		opts := ev.opts[ci][li]
		for j := 0; j < p.NumAccels; j++ {
			if j == orig {
				continue
			}
			if phase1 {
				row[li] = j
				ok := ev.resumeBounded(a, si, ck, best.mk, math.Inf(1))
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
			ok := ev.resumeBounded(a, si, ck, deadlineBound, s.curE)
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

// HeuristicCtx solves the HAP instance with the paper's accelerated
// approach [29]: seed with the minimum-latency assignment, then greedily
// apply the single-layer move with the best energy-saving-per-latency-cost
// ratio while the deadline still holds. If even the seed misses the
// deadline, it performs makespan-reducing moves first (load balancing)
// before optimizing energy. The returned Result reports Feasible=false when
// no deadline-meeting schedule was found.
//
// The solver polls ctx between refinement rounds and once per site inside
// every move scan. Once ctx is done it stops promptly and returns the best
// assignment refined so far — a valid, fully evaluated partial result —
// together with ctx's error; a cancellation before any refinement started
// returns the zero Result. Each call builds its own solver state and
// checkpoint arenas, so an aborted solve can never leak stale checkpoints
// into a later call.
func HeuristicCtx(ctx context.Context, p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := &hsolver{p: &p, ctx: ctx, ev: newEvaluator(&p), ck: newCkpts(&p), a: minLatencyAssignment(p), lastMove: -1}
	for ci, c := range p.Chains {
		for li := range c.Layers {
			s.sites = append(s.sites, site{ci, li})
		}
	}
	s.refresh()
	apply := func(m move) {
		s.a[m.ci][m.li] = m.j
		s.lastMove = s.ev.siteBase[m.ci] + m.li
		s.refresh()
	}

	// Phase 1: if infeasible, try to shorten the makespan by moving layers
	// off the critical (busiest) accelerator.
	for s.curMk > p.Deadline {
		if err := ctx.Err(); err != nil {
			return s.result(), err
		}
		m := s.scan(true)
		if s.aborted {
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
		if s.aborted {
			return s.result(), ctx.Err()
		}
		if !m.ok {
			break
		}
		apply(m)
	}
	return s.result(), nil
}

// MaxExhaustiveSize bounds the instance size ExhaustiveCtx accepts
// (NumAccels^Size assignments are enumerated).
const MaxExhaustiveSize = 1 << 20

// exhaustPre holds the per-position precomputation of the enumeration: the
// (chain, layer) of each branch position, in chain-major flat order, and the
// admissible remainder bounds (minimum energy / per-chain minimum cycles over
// all positions below k). Positions are branched from n-1 down.
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

// exhaustState is the depth-first enumeration state.
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
	haveFeasible bool // best is feasible; best.EnergyNJ then bounds pruning
	have         bool

	// nodes counts dfs entries; every ctxCheckNodes of them the ctx is
	// polled and aborted is latched, unwinding the recursion promptly.
	nodes   int
	aborted bool
}

func newExhaustState(ctx context.Context, p *Problem, pre *exhaustPre) *exhaustState {
	st := &exhaustState{
		ctx:       ctx,
		p:         p,
		pre:       pre,
		ev:        newEvaluator(p),
		flat:      make([]int, pre.n),
		a:         make(Assignment, len(p.Chains)),
		chainLoad: make([]int64, len(p.Chains)),
		accelLoad: make([]int64, p.NumAccels),
	}
	k := 0
	for ci, c := range p.Chains {
		st.a[ci] = st.flat[k : k+len(c.Layers)]
		k += len(c.Layers)
	}
	return st
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
	if s.aborted {
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
		if s.haveFeasible {
			bestE := s.best.EnergyNJ
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

// ExhaustiveCtx enumerates every assignment and returns the minimum-energy
// schedule meeting the deadline, or — when none is feasible — the schedule
// with the smallest makespan. It is the optimal reference standing in for
// the paper's ILP formulation; it returns an error when the instance is too
// large (NumAccels^layers > MaxExhaustiveSize). Enumeration prunes with
// admissible bounds, which is outcome-preserving, so the result is identical
// to the plain enumeration. The enumeration polls ctx every ctxCheckNodes
// dfs entries and the call returns ctx's error once it is done.
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
	st := newExhaustState(ctx, &p, newExhaustPre(&p))
	st.dfs(n-1, 0)
	if st.aborted {
		return Result{}, ctx.Err()
	}
	return st.best, nil
}

// HAP is the paper's solver function re = HAP(D, AIC, LS): it returns the
// minimum energy achievable under deadline p.Deadline, +Inf when no feasible
// schedule exists. It dispatches to ExhaustiveCtx for small instances and
// HeuristicCtx otherwise.
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
