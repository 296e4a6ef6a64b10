package sched

// This file retains the pre-rewrite solver verbatim (modulo renames) as the
// reference semantics for the differential tests: a full re-validating
// Evaluate per candidate, an O(chains) ready-layer scan, no pruning, no
// incremental deltas. The incremental solver in sched.go/eval.go must match
// it bit for bit — same assignments, makespans and energies at float
// precision.

import (
	"fmt"
	"math"
)

func referenceEvaluate(p Problem, a Assignment) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.checkAssignment(a); err != nil {
		return Result{}, err
	}

	next := make([]int, len(p.Chains)) // next unscheduled layer per chain
	chainReady := make([]int64, len(p.Chains))
	accelFree := make([]int64, p.NumAccels)
	buf := make([]int64, p.NumAccels)
	var energy float64
	var makespan int64

	remaining := p.Size()
	for remaining > 0 {
		bestChain := -1
		var bestStart int64 = math.MaxInt64
		for ci := range p.Chains {
			li := next[ci]
			if li >= len(p.Chains[ci].Layers) {
				continue
			}
			j := a[ci][li]
			start := chainReady[ci]
			if accelFree[j] > start {
				start = accelFree[j]
			}
			if start < bestStart {
				bestStart = start
				bestChain = ci
			}
		}
		ci := bestChain
		li := next[ci]
		j := a[ci][li]
		opt := p.Chains[ci].Layers[li].Options[j]
		finish := bestStart + opt.Cycles
		chainReady[ci] = finish
		accelFree[j] = finish
		if finish > makespan {
			makespan = finish
		}
		energy += opt.EnergyNJ
		if opt.BufferBytes > buf[j] {
			buf[j] = opt.BufferBytes
		}
		next[ci]++
		remaining--
	}

	return Result{
		Assign:       a.clone(),
		Makespan:     makespan,
		EnergyNJ:     energy,
		BufferDemand: buf,
		Feasible:     makespan <= p.Deadline,
	}, nil
}

// referenceClone detaches a Result from the caller's scratch assignment (the
// original solver's clone2).
func referenceClone(r Result) Result {
	r.Assign = r.Assign.clone()
	r.BufferDemand = append([]int64(nil), r.BufferDemand...)
	return r
}

func referenceHeuristic(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	a := minLatencyAssignment(p)
	cur, err := referenceEvaluate(p, a)
	if err != nil {
		return Result{}, err
	}

	// Phase 1: if infeasible, try to shorten the makespan by moving layers
	// off the critical (busiest) accelerator.
	for !cur.Feasible {
		improved := false
		best := cur
		for ci, c := range p.Chains {
			for li := range c.Layers {
				orig := a[ci][li]
				for j := 0; j < p.NumAccels; j++ {
					if j == orig {
						continue
					}
					a[ci][li] = j
					cand, err := referenceEvaluate(p, a)
					if err != nil {
						return Result{}, err
					}
					if cand.Makespan < best.Makespan {
						best = referenceClone(cand)
						improved = true
					}
				}
				a[ci][li] = orig
			}
		}
		if !improved {
			break
		}
		a = best.Assign.clone()
		cur = best
	}
	if !cur.Feasible {
		return cur, nil
	}

	// Phase 2: ratio-greedy energy refinement under the deadline.
	for {
		type moveCand struct {
			ci, li, j int
			res       Result
			ratio     float64
		}
		var bestMove *moveCand
		for ci, c := range p.Chains {
			for li := range c.Layers {
				orig := a[ci][li]
				for j := 0; j < p.NumAccels; j++ {
					if j == orig {
						continue
					}
					a[ci][li] = j
					cand, err := referenceEvaluate(p, a)
					if err != nil {
						return Result{}, err
					}
					a[ci][li] = orig
					if !cand.Feasible {
						continue
					}
					dE := cur.EnergyNJ - cand.EnergyNJ
					if dE <= 1e-12 {
						continue
					}
					dT := float64(cand.Makespan - cur.Makespan)
					if dT < 1 {
						dT = 1
					}
					r := dE / dT
					if bestMove == nil || r > bestMove.ratio {
						m := moveCand{ci: ci, li: li, j: j, res: referenceClone(cand), ratio: r}
						bestMove = &m
					}
				}
			}
		}
		if bestMove == nil {
			return cur, nil
		}
		a[bestMove.ci][bestMove.li] = bestMove.j
		cur = bestMove.res
	}
}

func referenceExhaustive(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := p.Size()
	total := 1
	for i := 0; i < n; i++ {
		total *= p.NumAccels
		if total > MaxExhaustiveSize {
			return Result{}, fmt.Errorf("sched: instance too large")
		}
	}

	flat := make([]int, n)
	a := make(Assignment, len(p.Chains))
	{
		k := 0
		for ci, c := range p.Chains {
			a[ci] = flat[k : k+len(c.Layers)]
			k += len(c.Layers)
		}
	}

	var best Result
	haveFeasible := false
	have := false
	for idx := 0; idx < total; idx++ {
		v := idx
		for i := 0; i < n; i++ {
			flat[i] = v % p.NumAccels
			v /= p.NumAccels
		}
		res, err := referenceEvaluate(p, a)
		if err != nil {
			return Result{}, err
		}
		switch {
		case res.Feasible && (!haveFeasible || res.EnergyNJ < best.EnergyNJ):
			best = referenceClone(res)
			haveFeasible = true
		case !haveFeasible && (!have || res.Makespan < best.Makespan):
			best = referenceClone(res)
		}
		have = true
	}
	return best, nil
}

// fullResimHeuristic is the heuristic without checkpoints: the production
// solver's O(1) energy screen, early-abort bounds and decision rule, but
// every candidate move re-simulates the whole schedule with runBounded. It
// is the control the checkpointed move scan replaces:
// TestDifferentialHeuristicNoCheckpoint pins it to referenceHeuristic, and
// BenchmarkHeuristicFullResim* time it against HeuristicCtx.
func fullResimHeuristic(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	a := minLatencyAssignment(p)
	ev := newEvaluator(&p)
	ev.run(a, nil)
	cur := ev.result(a)
	scan := func(phase1 bool) move {
		best := move{mk: cur.Makespan}
		screen := 1e-12 - energySlack(cur.EnergyNJ)
		deadlineBound := incClamp(p.Deadline)
		for ci, row := range a {
			for li, orig := range row {
				opts := ev.opts[ci][li]
				for j := 0; j < p.NumAccels; j++ {
					if j == orig {
						continue
					}
					if phase1 {
						row[li] = j
						ok := ev.runBounded(a, best.mk, math.Inf(1), nil)
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
					ok := ev.runBounded(a, deadlineBound, cur.EnergyNJ, nil)
					row[li] = orig
					if !ok || ev.makespan > p.Deadline {
						continue
					}
					dE := cur.EnergyNJ - ev.energy
					if dE <= 1e-12 {
						continue
					}
					dT := float64(ev.makespan - cur.Makespan)
					if dT < 1 {
						dT = 1
					}
					if r := dE / dT; !best.ok || r > best.ratio {
						best = move{ok: true, ci: ci, li: li, j: j, mk: ev.makespan, ratio: r}
					}
				}
			}
		}
		return best
	}
	apply := func(m move) {
		a[m.ci][m.li] = m.j
		ev.run(a, nil)
		cur = ev.result(a)
	}
	for !cur.Feasible {
		m := scan(true)
		if !m.ok {
			return cur, nil
		}
		apply(m)
	}
	for {
		m := scan(false)
		if !m.ok {
			return cur, nil
		}
		apply(m)
	}
}

// referenceScan is the heuristic's move scan as a plain scan-order loop:
// every move that passes phase 2's O(1) energy screen is simulated from its
// site's checkpoint, in (chain, layer, accelerator) order, and the best is
// replaced only by a strictly better one, so ties go to the first move in
// scan order. It is the semantics the best-first (*Workspace).scan must
// reproduce move for move (TestScanMatchesReference). It counts its
// simulations in w.sims and does not poll a context.
func referenceScan(w *Workspace, phase1 bool) move {
	p := &w.p
	best := move{mk: w.curMk} // phase 1: only strictly smaller makespans qualify
	screen := 1e-12 - energySlack(w.curE)
	deadlineBound := incClamp(p.Deadline)
	a, ev, ck := w.a, &w.ev, &w.ck
	for si, st := range w.sites {
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
				w.sims++
				if ok && ev.makespan < best.mk {
					best = move{ok: true, ci: ci, li: li, j: j, mk: ev.makespan}
				}
				continue
			}
			if opts[orig].EnergyNJ-opts[j].EnergyNJ <= screen {
				continue
			}
			row[li] = j
			ok := ev.resumeBounded(a, si, ck, deadlineBound, w.curE)
			row[li] = orig
			w.sims++
			if !ok || ev.makespan > p.Deadline {
				continue
			}
			dE := w.curE - ev.energy
			if dE <= 1e-12 {
				continue
			}
			dT := float64(ev.makespan - w.curMk)
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
