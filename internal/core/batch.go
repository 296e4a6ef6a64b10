package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"nasaic/internal/accel"
	"nasaic/internal/dnn"
)

// candidate is one hardware evaluation of a batch: an action vector, its
// decode, the metrics evalBatch fills in and, once the fold trains it, its
// accuracies. Its slices are carved from the explorer's arena and
// overwritten by the next batch, so a solution built from a candidate
// copies what it keeps (solutionOf).
type candidate struct {
	actions []int
	choices [][]int
	nets    []*dnn.Network
	accs    []float64
	design  accel.Design
	// skip leaves the candidate out of the evaluation: its architecture did
	// not decode, or (RL) it duplicates the design of candidate rep.
	skip bool
	rep  int
	m    HWMetrics
}

// arena is the explorer's reusable batch storage: the candidates and the
// backing arrays their slices are carved from. It grows to the largest batch
// the search asks for and is never shrunk.
type arena struct {
	cands   []candidate
	actions []int
	choices [][]int
	nets    []*dnn.Network
	accs    []float64
	subs    []accel.SubAccel
}

// batch returns n candidates carved from the explorer's arena, each with
// room for a full action vector, one choice vector, network and accuracy per
// task and one design. The candidates are valid until the next call.
func (x *Explorer) batch(n int) []candidate {
	a := &x.arena
	na, nt, ns := x.ctrl.NumDecisions(), len(x.W.Tasks), x.Cfg.HW.NumSubs
	if n > len(a.cands) {
		a.cands = make([]candidate, n)
		a.actions = make([]int, n*na)
		a.choices = make([][]int, n*nt)
		a.nets = make([]*dnn.Network, n*nt)
		a.accs = make([]float64, n*nt)
		a.subs = make([]accel.SubAccel, n*ns)
	}
	cands := a.cands[:n]
	for i := range cands {
		cands[i] = candidate{
			actions: a.actions[i*na : (i+1)*na : (i+1)*na],
			choices: a.choices[i*nt : (i+1)*nt : (i+1)*nt],
			nets:    a.nets[i*nt : (i+1)*nt : (i+1)*nt],
			accs:    a.accs[i*nt : (i+1)*nt : (i+1)*nt],
			design:  accel.Design{Subs: a.subs[i*ns : (i+1)*ns : (i+1)*ns]},
		}
	}
	return cands
}

// decode fills c's networks and design from c.actions, through the decode
// memo; an undecodable architecture marks c skipped.
func (x *Explorer) decode(c *candidate) {
	if err := x.decodeArch(c.actions[:x.archLen], c.choices, c.nets); err != nil {
		c.skip = true
		return
	}
	c.design = x.decodeDesign(c.actions, c.design.Subs)
}

// evalBatch evaluates the hardware metrics of every candidate not marked
// skip, fanning the hardware requests out over Config.workers() goroutines
// with the caller as one of them; a batch with one candidate to evaluate runs
// inline. Worker w solves on the explorer's workspace slot w, grown here on
// first use, so a warm batch allocates nothing per request. The candidates
// must already be decoded (decoding touches the single-goroutine decode
// memo). Each result lands in its own candidate, so folding the batch in
// candidate order gives the outcome of evaluating it sequentially, and the
// evaluator's counters come out the same: two concurrent requests for one
// key meet in the hardware cache's singleflight, and the waiter counts the
// hit a sequential second request would. A done context stops the fan-out,
// every worker drains and exits before evalBatch returns ctx's error, and
// the batch's metrics must then be discarded.
func (x *Explorer) evalBatch(ctx context.Context, cands []candidate) error {
	pending := 0
	for i := range cands {
		if !cands[i].skip {
			pending++
		}
	}
	workers := max(min(x.Cfg.workers(), pending), 1)
	for len(x.slots) < workers {
		x.slots = append(x.slots, new(workspace))
	}
	if workers == 1 {
		var next atomic.Int64
		return x.evalNext(ctx, x.slots[0], cands, &next)
	}
	f := &fanout{}
	f.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go x.evalWorker(ctx, x.slots[w], cands, f)
	}
	x.evalWorker(ctx, x.slots[0], cands, f)
	f.wg.Wait()
	return f.err
}

// fanout is the state the workers of one multi-worker evalBatch share.
type fanout struct {
	next atomic.Int64 // index of the next candidate to take
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error // the first evaluation error
}

// evalWorker runs evalNext on ws for f and records its error.
func (x *Explorer) evalWorker(ctx context.Context, ws *workspace, cands []candidate, f *fanout) {
	defer f.wg.Done()
	if err := x.evalNext(ctx, ws, cands, &f.next); err != nil {
		f.mu.Lock()
		if f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
	}
}

// evalNext is one evalBatch worker: on workspace ws, it evaluates the
// candidates whose indices it takes from next until none is left or an
// evaluation fails. Only a done context fails an evaluation, and it fails
// every later one at once, so the other workers drain promptly.
func (x *Explorer) evalNext(ctx context.Context, ws *workspace, cands []candidate, next *atomic.Int64) error {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(cands) {
			return nil
		}
		c := &cands[i]
		if c.skip {
			continue
		}
		m, err := x.eval.hwEval(ctx, ws, c.nets, c.design, true)
		if err != nil {
			return err
		}
		c.m = m
	}
}

// train runs the training-and-validating path of c's networks into c.accs
// and returns their weighted accuracy.
func (x *Explorer) train(c *candidate) float64 {
	x.eval.accuraciesInto(c.accs, c.nets)
	return x.W.Weighted(c.accs)
}

// solutionOf builds the solution of a feasible, trained candidate, copying
// the arena-backed slices it keeps.
func (x *Explorer) solutionOf(ep int, c *candidate) *Solution {
	return x.solution(ep, c.actions, slices.Clone(c.choices), slices.Clone(c.nets), slices.Clone(c.accs), c.m)
}
