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
// solves of each evaluation batch in parallel, each worker on its own
// Workspace, which keeps the heuristic's state from one solve to the next so
// that a warm solve allocates only its Result.
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
//
// # Best-first move scans
//
// A round's scan does not simulate its moves in scan order. It bounds them
// first, then simulates the most promising one first:
//
//  1. A bounding pass gives every move an integer makespan lower bound from
//     its site's snapshot: the snapshot's running makespan, each chain's
//     ready time plus its remaining cycles, and each sub-accelerator's free
//     time plus its remaining assigned cycles. The remaining cycles are
//     suffix sums of the current assignment, kept by the workspace and
//     updated with each applied move. Phase 1 drops moves whose bound cannot
//     beat the current makespan; phase 2 drops moves whose bound is past the
//     deadline and bounds the energy/latency ratio of the rest.
//  2. An evaluation pass simulates the candidates in order of least makespan
//     bound (phase 1) or largest ratio bound (phase 2), and stops once no
//     remaining candidate can beat the best found, ties in scan order
//     included.
//
// The chosen move — its makespan and its ratio bits too — is the move the
// plain scan-order loop picks; (*Workspace).scan carries the proofs, and
// scan_test.go checks it move for move against that loop (referenceScan, in
// reference_test.go).
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

// clone deep-copies the assignment into one backing array, each row capped
// at its length.
func (a Assignment) clone() Assignment {
	n := 0
	for _, row := range a {
		n += len(row)
	}
	flat := make([]int, n)
	out := make(Assignment, len(a))
	for i, row := range a {
		out[i] = flat[:len(row):len(row)]
		copy(out[i], row)
		flat = flat[len(row):]
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

// setMinLatency assigns every layer to its fastest sub-accelerator; a must
// be shaped for p.
func (a Assignment) setMinLatency(p *Problem) {
	for ci, c := range p.Chains {
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

// Workspace is the reusable state of the HAP heuristic: the schedule
// simulator, the checkpoint arena, the assignment rows, the site list, the
// assignment's suffix sums and the move scan's candidate list. Each solve
// re-carves them for its problem and allocates only when the problem is
// larger than every earlier one, so a workspace that solves problems of one
// shape allocates nothing but each Result's own slices. The zero value is
// ready to use. A Workspace is not safe for concurrent use; give each
// goroutine its own.
type Workspace struct {
	p     Problem
	a     Assignment
	rows  []int // the storage a's rows are carved from
	ev    evaluator
	ck    ckpts
	sites []site
	curMk int64
	curE  float64
	// bufDemand caches the last refresh's buffer demand, so result() can
	// snapshot without re-simulating (scans leave the evaluator holding the
	// last candidate's state, not the current assignment's).
	bufDemand []int64

	// Suffix sums of the current assignment's cycles, indexed by
	// sufBase(ci)+li for li in 0..len(chain ci) (the last entry is 0):
	// chainSuf holds the cycles of chain ci's layers li.. on their assigned
	// sub-accelerators, and accelSuf[idx·K+k] the part of them assigned to
	// sub-accelerator k. apply keeps them current in O(li).
	chainSuf []int64
	accelSuf []int64
	// accelLB is the scan's per-site scratch: sub-accelerator k's makespan
	// bound for the site's current assignment.
	accelLB []int64
	// cands is the scan's candidate list, carved for every move of a round.
	cands []cand

	// lastMove is the flat site index of the latest applied move (-1
	// before any): it lets refresh update the checkpoint arena
	// incrementally instead of re-simulating the whole assignment.
	lastMove int

	// aborted latches a mid-scan context cancellation, polled per site and
	// per simulated candidate, so a cancelled solve unwinds promptly with
	// the partial best instead of finishing the round.
	aborted bool

	// sims counts the candidate simulations the move scans ran, so tests
	// can check that the scan's bounds keep firing.
	sims int
}

// bind starts a heuristic solve of p: it carves the simulator, the arena,
// the assignment, the sites, the suffix sums and the candidate list for p
// and seeds the assignment with the minimum-latency one. lastMove = -1
// makes the first refresh a full checkpointed run, which resets the arena,
// so nothing an earlier solve left behind — a cancelled one included — can
// be read.
func (w *Workspace) bind(p Problem) {
	w.p = p
	pp := &w.p
	w.ev.bind(pp)
	w.ck.bind(pp)
	n, nc, na := p.Size(), len(p.Chains), p.NumAccels
	w.rows = resize(w.rows, n)
	w.a = resize(w.a, nc)
	w.sites = w.sites[:0]
	k := 0
	for ci, c := range p.Chains {
		w.a[ci] = w.rows[k : k+len(c.Layers) : k+len(c.Layers)]
		k += len(c.Layers)
		for li := range c.Layers {
			w.sites = append(w.sites, site{ci, li})
		}
	}
	w.a.setMinLatency(pp)
	w.chainSuf = resize(w.chainSuf, n+nc)
	w.accelSuf = resize(w.accelSuf, (n+nc)*na)
	w.accelLB = resize(w.accelLB, na)
	w.cands = resize(w.cands, n*(na-1))[:0]
	w.initSuffix()
	w.lastMove = -1
	w.aborted = false
}

// sufBase is the index of (ci, 0) in the suffix sums: chain ci's entries
// follow the entries of every earlier chain, each chain with one extra.
func (w *Workspace) sufBase(ci int) int { return w.ev.siteBase[ci] + ci }

// initSuffix computes the suffix sums of the current assignment.
func (w *Workspace) initSuffix() {
	na := w.p.NumAccels
	for ci, row := range w.a {
		opts := w.ev.opts[ci]
		i := w.sufBase(ci) + len(row)
		w.chainSuf[i] = 0
		clear(w.accelSuf[i*na : (i+1)*na])
		for li := len(row) - 1; li >= 0; li-- {
			i--
			c := opts[li][row[li]].Cycles
			w.chainSuf[i] = w.chainSuf[i+1] + c
			copy(w.accelSuf[i*na:(i+1)*na], w.accelSuf[(i+1)*na:(i+2)*na])
			w.accelSuf[i*na+row[li]] += c
		}
	}
}

// refresh re-simulates the current assignment and caches its metrics; the
// same single simulation also records the per-site snapshots the round's
// move scan resumes from, and after the first round it resumes from the
// applied move's own snapshot instead of replaying the whole schedule.
func (w *Workspace) refresh() {
	w.ev.resumeCheckpointed(w.a, w.lastMove, &w.ck)
	w.curMk = w.ev.makespan
	w.curE = w.ev.energy
	w.bufDemand = append(w.bufDemand[:0], w.ev.buf...)
}

// apply makes move m, updates the suffix sums of the moved layer's chain
// prefix and refreshes the metrics.
func (w *Workspace) apply(m move) {
	opts := w.ev.opts[m.ci][m.li]
	orig := w.a[m.ci][m.li]
	co, cj := opts[orig].Cycles, opts[m.j].Cycles
	na := w.p.NumAccels
	for i := w.sufBase(m.ci); i <= w.sufBase(m.ci)+m.li; i++ {
		w.chainSuf[i] += cj - co
		w.accelSuf[i*na+orig] -= co
		w.accelSuf[i*na+m.j] += cj
	}
	w.a[m.ci][m.li] = m.j
	w.lastMove = w.ev.siteBase[m.ci] + m.li
	w.refresh()
}

// result snapshots the current assignment from the metrics the last refresh
// cached; scans since then only touched candidate state. The Result owns its
// slices: nothing in it aliases the workspace.
func (w *Workspace) result() Result {
	return Result{
		Assign:       w.a.clone(),
		Makespan:     w.curMk,
		EnergyNJ:     w.curE,
		BufferDemand: append([]int64(nil), w.bufDemand...),
		Feasible:     w.curMk <= w.p.Deadline,
	}
}

// cand is one move of the scan's bounding pass: target j at site si, with
// its makespan lower bound lb and, in phase 2, the bound eUB on its energy
// saving and u on its ratio.
type cand struct {
	si, j int
	lb    int64
	eUB   float64
	u     float64
}

// before reports whether move (si, j) comes before move (sj, jj) in scan
// order.
func before(si, j, sj, jj int) bool { return si < sj || si == sj && j < jj }

// scan returns the best single-layer move against the current schedule
// under the phase's decision rule — phase 1 the least makespan below curMk,
// phase 2 the largest energy/latency ratio dE/max(1, mk−curMk) among moves
// that meet the deadline and save more than 1e-12 nJ — with ties resolved to
// the first move in (chain, layer, accelerator) scan order: exactly the move
// a plain scan-order loop over every move (referenceScan in the tests)
// picks, with the same mk and the same ratio bits. Candidates resume from
// their site's checkpoint (w.a is mutated and restored in place).
//
// The scan is best-first. A bounding pass polls ctx once per site and gives
// every move a makespan lower bound lb from its site's snapshot, in O(C·K)
// per site (C chains, K sub-accelerators) and O(1) per move; an evaluation
// pass then simulates the candidates in bound order, picked by
// repeated selection, polls ctx once per simulation and stops as soon as no
// remaining candidate can beat the best. On cancellation it latches
// w.aborted and returns the partial best.
//
// The makespan bound. At site si's snapshot, the layers already scheduled
// are fixed, chain c's layers next[c].. remain and sub-accelerator k is
// free at accelFree[k]. A move changes only the remaining part, so for the
// moved assignment a':
//
//   - the final makespan is at least the snapshot's running makespan, the
//     largest finish time so far;
//   - chain c's remaining layers run one after another, each starting no
//     earlier than its predecessor's finish, the first no earlier than
//     chainReady[c]; so chain c finishes no earlier than chainReady[c] plus
//     their cycles under a';
//   - every remaining layer assigned to k starts no earlier than
//     accelFree[k] at its start, which only grows, and the layers on k never
//     overlap; so k is busy until at least accelFree[k] plus their cycles.
//
// Each term is a finish time of the moved schedule or a lower bound on one,
// so their maximum lb is admissible: lb ≤ mk. The remaining cycles come from
// the suffix sums of the current assignment (w.chainSuf, w.accelSuf at each
// chain's next[c]), and the move only changes the moved layer's cycles on
// its own chain, its old and its new sub-accelerator. All of it is integer
// arithmetic, so the bound is exact, not approximate.
//
// Phase 1. Moves with lb ≥ curMk cannot qualify and are dropped. The rest
// are simulated in ascending (lb, scan order). The best so far is the
// lexicographic minimum of (mk, scan order) over the simulated moves, which
// is the move the scan-order loop keeps, since it replaces its best only on
// a strictly smaller mk. A candidate can displace it only with mk < best.mk,
// or mk = best.mk and an earlier scan position; so it resumes with the
// abort bound best.mk, or best.mk+1 when it precedes the best, and the
// simulation succeeds exactly when the candidate wins. Once the next
// candidate's lb reaches its own abort bound, every later one (larger lb,
// or equal lb and later scan position) does too, and the scan stops.
//
// Phase 2. Moves that fail the O(1) energy screen are dropped as before (a
// site whose every target fails it is not bounded at all), and so are moves
// with lb > Deadline: their mk is past the deadline too. A surviving move
// gets eUB = (δE + 2·energySlack(curE))·(1+1e-9), where δE is its option
// energy delta, and the ratio bound u = eUB / max(1, lb−curMk).
//
//   - eUB bounds the computed saving dE = curE − E': dE, the difference of
//     two schedule-order sums, is within energySlack(curE) of δE (see
//     energySlack), so dE ≤ δE + energySlack(curE). The second
//     energySlack(curE) and the (1+1e-9) factor dwarf the rounding of eUB's
//     own sum and product (δE ≤ curE, so each is below 2^-53·2·curE), and
//     δE + 2·energySlack(curE) > 0 for a move that passes the screen; so
//     eUB ≥ dE.
//   - u bounds the computed ratio r = fl(dE/dT): dT = max(1, mk−curMk) ≥
//     max(1, lb−curMk) because int64→float64 conversion is monotone, and a
//     correctly rounded division is monotone in both operands, so
//     r ≤ fl(eUB/max(1, lb−curMk)) = u.
//
// Candidates are simulated in descending (u, then ascending scan order).
// The best so far is the maximum of ratio, ties to the earliest scan
// position, as the scan-order loop's strict ">" keeps it. The scan stops
// when the next candidate has u < best.ratio, or u = best.ratio and a later
// scan position than the best: no later candidate can then reach a larger
// ratio, or an equal one from an earlier position. A candidate also aborts
// once its makespan reaches curMk + ⌊q⌋ + 2, where q = fl(eUB/best.ratio)
// < 2^51 (else the deadline bound alone applies). With Q = eUB/best.ratio
// exactly and u = 2^-53, q ≥ Q(1−u), so an aborted candidate has
// dT ≥ ⌊q⌋ + 2 > Q(1−u) + 1 and dE/dT ≤ eUB/dT < best.ratio·Q/(Q(1−u)+1);
// rounding the quotient up by at most a factor (1+u) leaves
// r < best.ratio·Q(1+u)/(Q(1−u)+1) ≤ best.ratio, because 2uQ ≤ 1 for
// Q < 2^52. Such a candidate could not even tie the best.
func (w *Workspace) scan(ctx context.Context, phase1 bool) move {
	if !w.bound(ctx, phase1) {
		return move{mk: w.curMk}
	}
	if phase1 {
		return w.bestMakespan(ctx)
	}
	return w.bestRatio(ctx)
}

// bound is the scan's bounding pass: it fills w.cands, in scan order, with
// the moves that survive the phase's screens. It polls ctx once per site
// and reports false, with w.aborted latched, on cancellation.
func (w *Workspace) bound(ctx context.Context, phase1 bool) bool {
	p, ev := &w.p, &w.ev
	// O(1) screen threshold: moves whose order-independent option delta
	// cannot reach the acceptance threshold even after the worst-case
	// full-sum discrepancy are skipped without simulating.
	slack := energySlack(w.curE)
	screen := 1e-12 - slack
	w.cands = w.cands[:0]
	for si, st := range w.sites {
		if ctx.Err() != nil {
			w.aborted = true
			return false
		}
		ci, li := st.ci, st.li
		orig := w.a[ci][li]
		opts := ev.opts[ci][li]
		eo, co := opts[orig].EnergyNJ, opts[orig].Cycles
		// The site's bounds are computed for its first move that passes
		// the energy screen, so a site whose every move fails it costs
		// nothing more.
		var lb0, ownChain int64
		bounded := false
		for j := range opts {
			if j == orig {
				continue
			}
			var dE float64
			if !phase1 {
				if dE = eo - opts[j].EnergyNJ; dE <= screen {
					continue
				}
			}
			if !bounded {
				lb0, ownChain = w.siteBounds(si, ci, orig, co)
				bounded = true
			}
			cj := opts[j].Cycles
			lb := max(lb0, ownChain-co+cj, w.accelLB[j]+cj)
			if phase1 {
				if lb < w.curMk {
					w.cands = append(w.cands, cand{si: si, j: j, lb: lb})
				}
				continue
			}
			if lb > p.Deadline {
				continue
			}
			eUB := (dE + 2*slack) * (1 + 1e-9)
			w.cands = append(w.cands, cand{si: si, j: j, lb: lb, eUB: eUB,
				u: eUB / max(1, float64(lb-w.curMk))})
		}
	}
	return true
}

// siteBounds computes the makespan bounds of site si's snapshot under the
// current assignment, where layer (ci, next[ci]) runs on orig for co
// cycles: lb0 is the maximum of every term a move of that layer leaves
// alone, ownChain is chain ci's bound, and w.accelLB[k] holds
// sub-accelerator k's.
func (w *Workspace) siteBounds(si, ci, orig int, co int64) (lb0, ownChain int64) {
	ck := &w.ck
	nc, na := ck.nc, ck.na
	next := ck.next[si*nc : (si+1)*nc]
	ready := ck.ready[si*nc : (si+1)*nc]
	copy(w.accelLB, ck.free[si*na:(si+1)*na])
	lb0 = ck.makespan[si]
	for c := range next {
		i := w.sufBase(c) + next[c]
		if b := ready[c] + w.chainSuf[i]; c == ci {
			ownChain = b
		} else if b > lb0 {
			lb0 = b
		}
		for k, r := range w.accelSuf[i*na : (i+1)*na] {
			w.accelLB[k] += r
		}
	}
	for k, b := range w.accelLB {
		if k == orig {
			b -= co
		}
		if b > lb0 {
			lb0 = b
		}
	}
	return lb0, ownChain
}

// simulate resumes candidate c from its site's checkpoint under the given
// abort bounds; it polls ctx first and reports false, with w.aborted
// latched, on cancellation.
func (w *Workspace) simulate(ctx context.Context, c *cand, mkBound int64, eBound float64) (ok bool) {
	if ctx.Err() != nil {
		w.aborted = true
		return false
	}
	st := w.sites[c.si]
	row := w.a[st.ci]
	orig := row[st.li]
	row[st.li] = c.j
	ok = w.ev.resumeBounded(w.a, c.si, &w.ck, mkBound, eBound)
	row[st.li] = orig
	w.sims++
	return ok
}

// bestMakespan is phase 1's evaluation pass over w.cands (see scan).
func (w *Workspace) bestMakespan(ctx context.Context) move {
	best := move{mk: w.curMk}
	bsi, bj := -1, 0 // the best's scan position; -1 precedes every move
	cs := w.cands
	for k := range cs {
		sel := k
		for i := k + 1; i < len(cs); i++ {
			if cs[i].lb < cs[sel].lb || cs[i].lb == cs[sel].lb && before(cs[i].si, cs[i].j, cs[sel].si, cs[sel].j) {
				sel = i
			}
		}
		cs[k], cs[sel] = cs[sel], cs[k]
		c := &cs[k]
		bound := best.mk
		if before(c.si, c.j, bsi, bj) {
			bound++
		}
		if c.lb >= bound {
			break
		}
		if !w.simulate(ctx, c, bound, math.Inf(1)) {
			if w.aborted {
				return best
			}
			continue
		}
		st := w.sites[c.si]
		best = move{ok: true, ci: st.ci, li: st.li, j: c.j, mk: w.ev.makespan}
		bsi, bj = c.si, c.j
	}
	return best
}

// bestRatio is phase 2's evaluation pass over w.cands (see scan).
func (w *Workspace) bestRatio(ctx context.Context) move {
	best := move{mk: w.curMk}
	bsi, bj := 0, 0
	deadlineBound := incClamp(w.p.Deadline)
	cs := w.cands
	for k := range cs {
		sel := k
		for i := k + 1; i < len(cs); i++ {
			if cs[i].u > cs[sel].u || cs[i].u == cs[sel].u && before(cs[i].si, cs[i].j, cs[sel].si, cs[sel].j) {
				sel = i
			}
		}
		cs[k], cs[sel] = cs[sel], cs[k]
		c := &cs[k]
		mkBound := deadlineBound
		if best.ok {
			if c.u < best.ratio || c.u == best.ratio && before(bsi, bj, c.si, c.j) {
				break
			}
			if q := c.eUB / best.ratio; q < 1<<51 {
				// The tightened bound stays below deadlineBound, so the
				// sum cannot overflow.
				if d := int64(q) + 2; d < deadlineBound-w.curMk {
					mkBound = w.curMk + d
				}
			}
		}
		// Candidates must meet the deadline and strictly lower the energy;
		// both abort bounds are exact rejections (see runBounded), and a
		// completed run has mk < mkBound ≤ Deadline+1.
		if !w.simulate(ctx, c, mkBound, w.curE) {
			if w.aborted {
				return best
			}
			continue
		}
		// Exact decision arithmetic: the candidate's energy is the full
		// schedule-order sum, so dE and the ratio are bit-identical to the
		// pre-rewrite solver's.
		dE := w.curE - w.ev.energy
		if dE <= 1e-12 {
			continue
		}
		dT := float64(w.ev.makespan - w.curMk)
		if dT < 1 {
			dT = 1
		}
		r := dE / dT
		if !best.ok || r > best.ratio || r == best.ratio && before(c.si, c.j, bsi, bj) {
			st := w.sites[c.si]
			best = move{ok: true, ci: st.ci, li: st.li, j: c.j, mk: w.ev.makespan, ratio: r}
			bsi, bj = c.si, c.j
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
// The solver polls ctx between refinement rounds, and inside every move
// scan once per site and once per simulated candidate. Once ctx is done it stops promptly and returns the best
// assignment refined so far — a valid, fully evaluated partial result —
// together with ctx's error; a cancellation before any refinement started
// returns the zero Result. Each call solves on a fresh Workspace; a
// Workspace reused across solves gives bit-identical results, because every
// solve starts with a full checkpointed run that resets the arena, so an
// aborted solve can never leak stale checkpoints into a later one.
func HeuristicCtx(ctx context.Context, p Problem) (Result, error) {
	return new(Workspace).heuristic(ctx, p)
}

// heuristic is HeuristicCtx on w's reusable state.
func (w *Workspace) heuristic(ctx context.Context, p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	w.bind(p)
	w.refresh()

	// Phase 1: if infeasible, try to shorten the makespan by moving layers
	// off the critical (busiest) accelerator.
	for w.curMk > p.Deadline {
		if err := ctx.Err(); err != nil {
			return w.result(), err
		}
		m := w.scan(ctx, true)
		if w.aborted {
			return w.result(), ctx.Err()
		}
		if !m.ok {
			break
		}
		w.apply(m)
	}
	if w.curMk > p.Deadline {
		return w.result(), nil
	}

	// Phase 2: ratio-greedy energy refinement under the deadline.
	for {
		if err := ctx.Err(); err != nil {
			return w.result(), err
		}
		m := w.scan(ctx, false)
		if w.aborted {
			return w.result(), ctx.Err()
		}
		if !m.ok {
			break
		}
		w.apply(m)
	}
	return w.result(), nil
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
// solves are bit-identical to HAP. It solves on a fresh Workspace.
func HAPCtx(ctx context.Context, p Problem) (float64, Result, error) {
	return new(Workspace).HAP(ctx, p)
}

// HAP is HAPCtx on w's reusable state: the one production solve. Results
// are bit-identical to HAPCtx's. Small instances go to ExhaustiveCtx, which
// keeps its own allocation.
func (w *Workspace) HAP(ctx context.Context, p Problem) (float64, Result, error) {
	var (
		res Result
		err error
	)
	if canExhaust(p) {
		res, err = ExhaustiveCtx(ctx, p)
	} else {
		res, err = w.heuristic(ctx, p)
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
