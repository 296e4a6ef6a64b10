package sched

import (
	"fmt"
	"math"
)

// This file is the incremental evaluation engine under the HAP solvers: a
// reusable, allocation-free schedule simulator that keeps one ready-time key
// per chain and selects the next layer by a linear argmin over the
// unfinished chains. The solvers validate the problem once, then run this
// unchecked core for every candidate they consider; the exported
// Evaluate/Timeline wrappers keep validating for external callers.
//
// Bit-identity contract: the simulator reproduces the original O(chains)
// ready-layer scan exactly — same scheduling decisions (earliest start, ties
// to the lower chain index), same integer makespans, and energy accumulated
// in the same schedule order so the float64 sums are identical to the last
// bit. The differential tests in differential_test.go enforce this against
// a verbatim copy of the pre-rewrite solver.

// evaluator holds the reusable scratch state for repeated simulations of one
// Problem. An evaluator is not safe for concurrent use.
type evaluator struct {
	p    *Problem
	opts [][][]Option // opts[ci][li] aliases Chains[ci].Layers[li].Options
	rows [][]Option   // the storage opts' rows are carved from

	// siteBase[ci] is the flat chain-major index of (ci, 0): site (ci, li)
	// has flat index siteBase[ci]+li, matching the move scan's site order.
	siteBase []int

	// next[ci] is chain ci's head layer; len(opts[ci]) marks it finished.
	next       []int
	chainReady []int64
	accelFree  []int64
	buf        []int64
	// key[ci] is a lower bound on the start of chain ci's head layer. It
	// can go stale low (a sub-accelerator got busier since it was set); the
	// loop re-checks a selected chain's key and re-selects with the true
	// start, which is sound because chainReady/accelFree only increase.
	key []int64

	makespan int64
	energy   float64
}

func newEvaluator(p *Problem) *evaluator {
	e := new(evaluator)
	e.bind(p)
	return e
}

// bind points the evaluator at p, re-carving its scratch from the storage
// of earlier problems when it is large enough. Every run starts with
// initState, so the carved scratch needs no clearing.
func (e *evaluator) bind(p *Problem) {
	nc := len(p.Chains)
	e.p = p
	e.opts = resize(e.opts, nc)
	e.rows = resize(e.rows, p.Size())
	e.siteBase = resize(e.siteBase, nc)
	e.next = resize(e.next, nc)
	e.chainReady = resize(e.chainReady, nc)
	e.accelFree = resize(e.accelFree, p.NumAccels)
	e.buf = resize(e.buf, p.NumAccels)
	e.key = resize(e.key, nc)
	base := 0
	for ci := range p.Chains {
		layers := p.Chains[ci].Layers
		rows := e.rows[base : base+len(layers) : base+len(layers)]
		for li := range layers {
			rows[li] = layers[li].Options
		}
		e.opts[ci] = rows
		e.siteBase[ci] = base
		base += len(rows)
	}
}

// resize returns s with length n, reusing its backing array when that is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ckpts is a checkpoint arena: one snapshot of the simulator's full state per
// layer site, taken by runCheckpointed just before that layer is selected for
// the first time. Everything simulated before that selection is independent
// of the layer's own assignment, so a single-layer move can resume from the
// snapshot and replay only the schedule's suffix — the shared prefix is
// reused across the whole move scan of one refinement round. All per-site
// storage is flat and reused across rounds, and a Workspace reuses it across
// solves; one arena belongs to one evaluator's baseline run at a time.
type ckpts struct {
	nc, na   int
	captured []bool
	next     []int   // nc per site
	ready    []int64 // nc per site
	key      []int64 // nc per site
	free     []int64 // na per site
	buf      []int64 // na per site
	energy   []float64
	makespan []int64
	// order[si] is the capture sequence number: ascending order equals
	// ascending first-selection time in the arena's simulation. It lets
	// resumeCheckpointed invalidate exactly the snapshots taken at or after
	// a moved layer's first selection — everything captured earlier stays
	// valid, because nothing simulated before it read the moved assignment.
	order []int
	clock int
}

// bind sizes the arena for p, re-carving the storage of earlier problems
// when it is large enough. The carved slots may hold an earlier solve's
// snapshots: runCheckpointed resets the arena before it captures, and
// nothing reads a slot before a capture.
func (c *ckpts) bind(p *Problem) {
	n, nc, na := p.Size(), len(p.Chains), p.NumAccels
	c.nc, c.na = nc, na
	c.captured = resize(c.captured, n)
	c.next = resize(c.next, n*nc)
	c.ready = resize(c.ready, n*nc)
	c.key = resize(c.key, n*nc)
	c.free = resize(c.free, n*na)
	c.buf = resize(c.buf, n*na)
	c.energy = resize(c.energy, n)
	c.makespan = resize(c.makespan, n)
	c.order = resize(c.order, n)
}

func (c *ckpts) reset() {
	for i := range c.captured {
		c.captured[i] = false
	}
	c.clock = 0
}

// invalidateFrom drops every snapshot captured at or after site si's — the
// ones a reassignment of site si can change.
func (c *ckpts) invalidateFrom(si int) {
	ord := c.order[si]
	for i, cap := range c.captured {
		if cap && c.order[i] >= ord {
			c.captured[i] = false
		}
	}
}

// capture snapshots the evaluator's live state (plus the running energy and
// makespan, which the loop keeps in locals) into site si's slot.
func (c *ckpts) capture(si int, e *evaluator, energy float64, makespan int64) {
	copy(c.next[si*c.nc:], e.next)
	copy(c.ready[si*c.nc:], e.chainReady)
	copy(c.key[si*c.nc:], e.key)
	copy(c.free[si*c.na:], e.accelFree)
	copy(c.buf[si*c.na:], e.buf)
	c.energy[si] = energy
	c.makespan[si] = makespan
	c.captured[si] = true
	c.order[si] = c.clock
	c.clock++
}

// restore loads site si's snapshot back into the evaluator and returns the
// energy and makespan to resume the loop with.
func (c *ckpts) restore(si int, e *evaluator) (float64, int64) {
	copy(e.next, c.next[si*c.nc:(si+1)*c.nc])
	copy(e.chainReady, c.ready[si*c.nc:(si+1)*c.nc])
	copy(e.key, c.key[si*c.nc:(si+1)*c.nc])
	copy(e.accelFree, c.free[si*c.na:(si+1)*c.na])
	copy(e.buf, c.buf[si*c.na:(si+1)*c.na])
	return c.energy[si], c.makespan[si]
}

// run simulates the paper's sch() event-driven list schedule of assignment a
// and leaves makespan/energy/buf in the evaluator's fields. When placements
// is non-nil the concrete schedule is appended to it in start order. The
// assignment must be well-shaped for the problem (the solvers only produce
// such assignments; external input goes through Evaluate/Timeline).
func (e *evaluator) run(a Assignment, placements *[]Placement) {
	e.runBounded(a, math.MaxInt64, math.Inf(1), placements)
}

// runBounded is run with sound early aborts for candidate screening: it
// returns false as soon as any layer's finish time reaches mkBound or the
// energy accumulated so far reaches eBound. Because finish times never
// exceed the final makespan and energy partial sums of non-negative terms
// are monotonically non-decreasing in float64, an abort proves the completed
// metrics would have reached the bound too — so callers can reject the
// candidate exactly as if they had compared the full simulation's result.
// On abort the evaluator's makespan/energy/buf are unspecified.
func (e *evaluator) runBounded(a Assignment, mkBound int64, eBound float64, placements *[]Placement) bool {
	e.initState()
	return e.loopBounded(a, 0, 0, mkBound, eBound, placements, nil)
}

// runCheckpointed is a full (unbounded) run that additionally records one
// checkpoint per layer site into ck. After it returns, resumeBounded can
// replay any single-layer move from that layer's snapshot.
func (e *evaluator) runCheckpointed(a Assignment, ck *ckpts) {
	ck.reset()
	e.initState()
	e.loopBounded(a, 0, 0, math.MaxInt64, math.Inf(1), nil, ck)
}

// resumeCheckpointed brings an arena captured for a's previous value up to
// date after the single-layer move at site si was applied to a: snapshots
// taken before si's first selection are still exact (the prefix never read
// the moved assignment), so only si's own and every later snapshot are
// dropped and re-captured by resuming the simulation from si's snapshot. The
// final makespan/energy/buf left in the evaluator — and every snapshot in
// the arena — are bit-identical to a fresh runCheckpointed(a, ck). si < 0
// (or an empty arena) falls back to the full checkpointed run.
func (e *evaluator) resumeCheckpointed(a Assignment, si int, ck *ckpts) {
	if si < 0 || !ck.captured[si] {
		e.runCheckpointed(a, ck)
		return
	}
	ck.invalidateFrom(si)
	energy, makespan := ck.restore(si, e)
	e.loopBounded(a, energy, makespan, math.MaxInt64, math.Inf(1), nil, ck)
}

// resumeBounded replays assignment a from the checkpoint of site si (flat
// chain-major index), with the same early-abort bounds as runBounded. It is
// exact for any a that agrees with the checkpointed baseline on every
// decision taken before site si's first selection — in particular for the
// move scan's single-layer reassignments of site si itself: the restored
// state is bit-identical to what a full simulation of a would have reached,
// and the suffix replays the same code over the same state, so makespan,
// energy and buffer demand come out bit-identical to runBounded(a, ...).
func (e *evaluator) resumeBounded(a Assignment, si int, ck *ckpts, mkBound int64, eBound float64) bool {
	if !ck.captured[si] {
		// Defensive: a full run captures every site; never reached.
		return e.runBounded(a, mkBound, eBound, nil)
	}
	// The prefix is shared with the baseline, but the bounds still apply to
	// it: a full bounded run would have aborted at the first prefix finish
	// time >= mkBound (the checkpointed running makespan is their maximum)
	// or the first prefix partial energy >= eBound (partial sums of
	// non-negative terms are non-decreasing, so the checkpointed running
	// energy is their maximum). Rejecting here is exactly the full run's
	// abort.
	if ck.makespan[si] >= mkBound || ck.energy[si] >= eBound {
		return false
	}
	energy, makespan := ck.restore(si, e)
	return e.loopBounded(a, energy, makespan, mkBound, eBound, nil, nil)
}

// initState resets the per-run scratch: every chain's head is its first
// layer, ready at time 0.
func (e *evaluator) initState() {
	for ci := range e.next {
		e.next[ci] = 0
		e.chainReady[ci] = 0
		e.key[ci] = 0
	}
	for j := range e.accelFree {
		e.accelFree[j] = 0
		e.buf[j] = 0
	}
}

// loopBounded runs the schedule to completion from the evaluator's current
// state, carrying the running energy/makespan (zero for a fresh run, the
// snapshot values for a resume). Each step selects the unfinished chain with
// the smallest (key, chain) — ties go to the lower chain index, the original
// scan's tie-break. With ck non-nil it captures a checkpoint before each
// layer's first selection — before, because with a different assignment for
// that layer even the stale-key decision can change.
func (e *evaluator) loopBounded(a Assignment, energy float64, makespan int64, mkBound int64, eBound float64, placements *[]Placement, ck *ckpts) bool {
	for {
		ci := -1
		for c, k := range e.key {
			if e.next[c] < len(e.opts[c]) && (ci < 0 || k < e.key[ci]) {
				ci = c
			}
		}
		if ci < 0 {
			break
		}
		li := e.next[ci]
		if ck != nil {
			if si := e.siteBase[ci] + li; !ck.captured[si] {
				ck.capture(si, e, energy, makespan)
			}
		}
		j := a[ci][li]
		start := e.chainReady[ci]
		if f := e.accelFree[j]; f > start {
			start = f
		}
		if start > e.key[ci] {
			// Stale key: the sub-accelerator got busier since the key was
			// set. Re-select with the true start; keys only increase, so
			// the next selection is the schedule's true argmin (this same
			// chain, at start, unless another chain now precedes it).
			e.key[ci] = start
			continue
		}
		opt := &e.opts[ci][li][j]
		finish := start + opt.Cycles
		if finish >= mkBound {
			return false
		}
		if placements != nil {
			*placements = append(*placements, Placement{
				Chain: ci, Layer: li, Name: e.p.Chains[ci].Layers[li].Name,
				Accel: j, Start: start, End: finish,
			})
		}
		e.chainReady[ci] = finish
		e.accelFree[j] = finish
		if finish > makespan {
			makespan = finish
		}
		energy += opt.EnergyNJ
		if energy >= eBound {
			return false
		}
		if opt.BufferBytes > e.buf[j] {
			e.buf[j] = opt.BufferBytes
		}
		e.next[ci] = li + 1
		e.key[ci] = finish
	}
	e.makespan = makespan
	e.energy = energy
	return true
}

// result snapshots the last run into a detached Result: the assignment is
// cloned exactly once and the buffer demand copied out of scratch.
func (e *evaluator) result(a Assignment) Result {
	return Result{
		Assign:       a.clone(),
		Makespan:     e.makespan,
		EnergyNJ:     e.energy,
		BufferDemand: append([]int64(nil), e.buf...),
		Feasible:     e.makespan <= e.p.Deadline,
	}
}

// checkAssignment verifies that a is well-shaped for the problem.
func (p Problem) checkAssignment(a Assignment) error {
	if len(a) != len(p.Chains) {
		return fmt.Errorf("sched: assignment has %d chains, want %d", len(a), len(p.Chains))
	}
	for i, row := range a {
		if len(row) != len(p.Chains[i].Layers) {
			return fmt.Errorf("sched: chain %d assignment has %d layers, want %d",
				i, len(row), len(p.Chains[i].Layers))
		}
		for li, j := range row {
			if j < 0 || j >= p.NumAccels {
				return fmt.Errorf("sched: chain %d layer %d assigned to invalid accelerator %d", i, li, j)
			}
		}
	}
	return nil
}
