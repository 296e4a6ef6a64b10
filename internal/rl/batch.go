package rl

import (
	"fmt"

	"nasaic/internal/nn"
	"nasaic/internal/stats"
)

// This file is the controller's one engine. Every rollout and every
// policy-gradient update steps through the LSTM in lockstep, one column per
// episode, on nn's matrix-matrix kernels; a single episode is a one-column
// batch. sampleBatch is the one sampler and AccumulateRound the one BPTT.
// The exported Sample, SampleForcedBatch, Accumulate and
// AccumulateMaskedBatch are thin entries into them.
//
// Both run in the controller's workspace, which is sized on first use to the
// widest round seen and then reused, so a warm round allocates only its
// episode headers and Actions slices. n columns run PadWidth(n) wide (11
// rollouts on 12 columns, 13 trained episodes on 16); the pad columns are
// zero going into every kernel and never reach a real column. The episodes
// of a round are views of its forward record, valid until the next sampling
// round; Detach copies one out. Sampling a round of n rollouts also sizes
// the training side for the n+2 episodes its BPTT takes (the lead twice and
// a replay), so a replay arriving later reallocates nothing.
//
// Before step p every rollout of a round takes the same actions (the
// hardware-only rollouts are forced to the lead's architecture), so every
// column of those steps holds the same input, state and logits. A round
// more than 4 columns wide runs each such step once, on one column of
// 4-wide matrices (leadStep), and copies that column into the record's n
// real columns; the uniform draws, the actions and the backward pass stay
// per rollout. The record keeps tanh(C) (nn.LSTMBatchCache.TC) from the
// forward pass, so the backward pass recomputes no activation.
//
// The width of a batch never changes a bit of the result, which the
// differential tests (differential_test.go) check against a one-episode,
// one-column reference (reference_test.go):
//
//   - sampleBatch pre-draws its uniforms from the controller RNG in the
//     order one-episode rollouts would consume them (episode-major, one
//     draw per sampled step) and feeds them to stats.CategoricalU, so
//     actions and the RNG state afterwards match draw for draw.
//   - nn's batched kernels are bit-identical per column to the
//     matrix-vector reference (see internal/nn), padded or not.
//   - AccumulateRound computes the backward flows batched, but adds the
//     parameter gradients of each parameter in the order one Accumulate
//     call per episode would: the heads, start and embeddings at their only
//     step, episode by episode; the LSTM weights episode-major with t
//     descending, in one pass after the flows.

// shape is the geometry of a controller's rollouts: the hidden width and
// each decision's option count.
type shape struct {
	hidden int
	opts   []int
}

// recordLen returns the floats of a record p columns wide.
func (s *shape) recordLen(p int) int {
	n := s.hidden // the zero state
	for _, o := range s.opts {
		n += 8*s.hidden + o // X, the four gates, C, H, tanh(C) and the logits
	}
	return n * p
}

// maxOpts returns the largest option count.
func (s *shape) maxOpts() int {
	m := 0
	for _, o := range s.opts {
		m = max(m, o)
	}
	return m
}

// record is the forward record of a lockstep batch of rollouts, one column
// per rollout: every step's LSTM cache and logits. Step 0 starts from a zero
// state; step t's HPrev and CPrev are step t−1's H and C.
type record struct {
	shape  *shape
	gen    uint64 // sampling rounds written into it; 0 for a detached copy
	steps  []nn.LSTMBatchCache
	logits []nn.Mat
	mats   []nn.Mat // the matrices steps point to
}

// layout carves r's matrices, p columns wide, from the front of arena (at
// least shape.recordLen(p) long) and clears the zero state.
func (r *record) layout(s *shape, p int, arena []float64) {
	if r.steps == nil {
		r.shape = s
		r.steps = make([]nn.LSTMBatchCache, len(s.opts))
		r.logits = make([]nn.Mat, len(s.opts))
		r.mats = make([]nn.Mat, 1+8*len(s.opts))
	}
	cv := carver{buf: arena, p: p}
	mats := r.mats
	take := func() *nn.Mat {
		m := &mats[0]
		mats = mats[1:]
		*m = cv.mat(s.hidden)
		return m
	}
	zero := take()
	zero.Zero()
	h, c := zero, zero
	for t := range r.steps {
		st := &r.steps[t]
		*st = nn.LSTMBatchCache{
			X: take(), HPrev: h, CPrev: c,
			I: take(), F: take(), G: take(), O: take(),
			C: take(), H: take(), TC: take(),
		}
		r.logits[t] = cv.mat(s.opts[t])
		h, c = st.H, st.C
	}
}

// carver hands out consecutive p-column matrices from the front of buf.
type carver struct {
	buf []float64
	p   int
}

func (cv *carver) mat(rows int) nn.Mat {
	n := rows * cv.p
	m := nn.Mat{R: rows, C: cv.p, W: cv.buf[:n:n]}
	cv.buf = cv.buf[n:]
	return m
}

// workspace is every per-round buffer of the controller. Each side is sized
// on first use to the widest padded width seen and re-carved when the width
// changes, so rounds of one width reuse the same matrices.
type workspace struct {
	shape *shape

	// Sampling: the forward record of the last round, whose columns the
	// round's episodes view, the LSTM pre-activation scratch and the
	// round's uniforms.
	sampleP       int // current padded width, 0 before the first layout
	sampleBuf     []float64
	rec           record
	zx, zh        nn.Mat
	us            []float64
	prob, logitsV []float64 // one column's softmax and logits

	// The shared prefix of a round more than 4 wide: step t < p runs one
	// column on 4-wide matrices, in lead[t&1], whose HPrev and CPrev are the
	// other cache's H and C or leadZero, with leadLog as its logits and
	// 4-wide views of zx and zh as its scratch. Allocated on first use.
	lead           [2]nn.LSTMBatchCache
	leadZero       nn.Mat
	leadLog        nn.Mat
	leadLogBuf     []float64 // backs leadLog, maxOpts rows
	leadZX, leadZH nn.Mat

	// Training: one lockstep BPTT's gradient flows, the k-major gathers of
	// AccumBPTTGrads and one column's vectors.
	trainP      int
	trainBuf    []float64
	seqs        []nn.SeqRef
	dzs         []*nn.Mat // step t's gate pre-activation gradient
	dLogBuf     []float64 // backs dLog, maxOpts rows
	dLog        nn.Mat    // the current step's logit gradients
	dy, dx      nn.Mat    // head flows and LSTM input gradients
	dH, dC      nn.Mat    // the state gradient carried backwards
	bptt        []float64
	dl, hv, dxv []float64 // one column's logit gradient, h_t and dx
}

// init allocates the buffers whose size does not depend on the width.
func (ws *workspace) init(s *shape) {
	ws.shape = s
	m := s.maxOpts()
	ws.prob, ws.logitsV, ws.dl = make([]float64, m), make([]float64, m), make([]float64, m)
	ws.hv, ws.dxv = make([]float64, s.hidden), make([]float64, s.hidden)
	ws.dzs = make([]*nn.Mat, len(s.opts))
	for t := range ws.dzs {
		ws.dzs[t] = new(nn.Mat)
	}
}

// sampling prepares the workspace for a round of n rollouts and returns its
// record, PadWidth(n) columns wide.
func (ws *workspace) sampling(n int) *record {
	s := ws.shape
	p := nn.PadWidth(n)
	if size := s.recordLen(p) + 8*s.hidden*p; size > len(ws.sampleBuf) {
		ws.sampleBuf = make([]float64, size)
		ws.us = make([]float64, p*len(s.opts))
		ws.sampleP = 0
	}
	if p != ws.sampleP {
		ws.sampleP = p
		ws.rec.layout(s, p, ws.sampleBuf)
		cv := carver{buf: ws.sampleBuf[s.recordLen(p):], p: p}
		ws.zx, ws.zh = cv.mat(4*s.hidden), cv.mat(4*s.hidden)
		if p > 4 {
			if ws.leadLogBuf == nil {
				ws.layoutLead()
			}
			ws.leadZX = nn.Mat{R: ws.zx.R, C: 4, W: ws.zx.W[:4*ws.zx.R]}
			ws.leadZH = nn.Mat{R: ws.zh.R, C: 4, W: ws.zh.W[:4*ws.zh.R]}
		}
	}
	// The round trains its n rollouts, the lead again and a replay.
	ws.growTraining(n + 2)
	ws.rec.gen++
	return &ws.rec
}

// layoutLead allocates the shared prefix's two 4-wide step caches, zero
// state and logits.
func (ws *workspace) layoutLead() {
	s := ws.shape
	m := s.maxOpts()
	cv := carver{buf: make([]float64, 4*(17*s.hidden+m)), p: 4}
	ws.leadZero = cv.mat(s.hidden)
	for i := range ws.lead {
		mats := make([]nn.Mat, 8)
		for k := range mats {
			mats[k] = cv.mat(s.hidden)
		}
		ws.lead[i] = nn.LSTMBatchCache{
			X: &mats[0], I: &mats[1], F: &mats[2], G: &mats[3], O: &mats[4],
			C: &mats[5], H: &mats[6], TC: &mats[7],
		}
	}
	ws.leadLogBuf = cv.mat(m).W
	ws.leadLog.C = 4
}

// growTraining makes the training arena and AccumBPTTGrads' gathers hold a
// BPTT over b episodes; only a wider call than any before reallocates them.
func (ws *workspace) growTraining(b int) {
	s := ws.shape
	p := nn.PadWidth(b)
	if size := p * (len(s.opts)*4*s.hidden + s.maxOpts() + 4*s.hidden); size > len(ws.trainBuf) {
		ws.trainBuf = make([]float64, size)
		ws.seqs = make([]nn.SeqRef, p)
		ws.trainP = 0
	}
	// The gathers take X (hidden rows), HPrev and four dz rows per
	// episode-step.
	if size := b * len(s.opts) * (2*s.hidden + 4); size > cap(ws.bptt) {
		ws.bptt = make([]float64, size)
	}
}

// training prepares the workspace for a BPTT over b episodes, PadWidth(b)
// columns wide.
func (ws *workspace) training(b int) {
	s := ws.shape
	p := nn.PadWidth(b)
	m := s.maxOpts()
	ws.growTraining(b)
	if p != ws.trainP {
		ws.trainP = p
		cv := carver{buf: ws.trainBuf, p: p}
		for _, dz := range ws.dzs {
			*dz = cv.mat(4 * s.hidden)
		}
		ws.dLogBuf = cv.mat(m).W
		ws.dy, ws.dx = cv.mat(s.hidden), cv.mat(s.hidden)
		ws.dH, ws.dC = cv.mat(s.hidden), cv.mat(s.hidden)
		ws.dLog.C = p
	}
}

// Sample draws one rollout a_1..a_T from the current policy. The episode is
// detached: it stays valid across rounds.
func (c *Controller) Sample() *Episode { return c.sampleBatch(nil, 0, 1)[0].Detach() }

// SampleForcedBatch draws b rollouts whose first len(prefix) actions are all
// forced to the given values (the optimizer selector's SA=0, SH=1 mode). The
// episodes are detached: they stay valid across rounds.
func (c *Controller) SampleForcedBatch(prefix []int, b int) []*Episode {
	eps := c.sampleBatch(prefix, len(prefix), b)
	for i, ep := range eps {
		eps[i] = ep.Detach()
	}
	return eps
}

// SampleRound draws the 1+phi rollouts of one NASAIC episode in one lockstep
// pass. Episode 0 is the combined rollout (SA=SH=1) and samples every step.
// Episodes 1..phi are the hardware-only rollouts (SA=0, SH=1): at each step
// t < p they take episode 0's action, and they sample the steps after it.
// The episodes and the RNG state afterwards are bit-identical to Sample
// followed by SampleForcedBatch(first p actions of that sample, phi). The
// episodes are views of the workspace, valid until the next sampling round.
func (c *Controller) SampleRound(p, phi int) []*Episode {
	return c.sampleBatch(nil, p, 1+phi)
}

// sampleBatch steps n rollouts in lockstep. Rollouts take a forced action at
// each step t < p and sample the rest. The forced actions are prefix; a nil
// prefix selects lead mode, in which rollout 0 samples every step and the
// others copy its actions. Uniforms are drawn up front, rollout-major: T for
// a lead rollout, T−p for each forced one.
func (c *Controller) sampleBatch(prefix []int, p, n int) []*Episode {
	if n <= 0 {
		panic("rl: batch size must be positive")
	}
	T := len(c.specs)
	if p < 0 || p > T {
		panic("rl: forced prefix longer than rollout")
	}
	lead := 0
	if prefix == nil {
		lead = 1
	}
	ws := &c.ws
	rec := ws.sampling(n)
	us := ws.us[:lead*T+(n-lead)*(T-p)]
	for i := range us {
		us[i] = c.rng.Float64()
	}
	// draw returns rollout e's uniform for sampled step t.
	draw := func(e, t int) float64 {
		if e < lead {
			return us[t]
		}
		return us[lead*T+(e-lead)*(T-p)+(t-p)]
	}

	eps := make([]*Episode, n)
	views := make([]Episode, n)
	actions := make([]int, n*T)
	for e := range eps {
		views[e] = Episode{Actions: actions[e*T : (e+1)*T : (e+1)*T], rec: rec, col: e, gen: rec.gen}
		eps[e] = &views[e]
	}
	if prefix == nil {
		prefix = eps[0].Actions // filled in step by step, before it is read
	}

	for t := 0; t < T; t++ {
		st := &rec.steps[t]
		logits := &rec.logits[t]
		if t < p && ws.sampleP > 4 {
			// Every rollout takes the same actions before p, so every
			// column of the step is the same: run it once.
			c.leadStep(t, eps[0].Actions, n)
		} else {
			// The step's input: the learned start, then each rollout's
			// embedding of its previous action.
			for e := 0; e < n; e++ {
				if t == 0 {
					st.X.CopyColFrom(e, c.start.Val, 0)
				} else {
					st.X.CopyColFrom(e, c.embeds[t-1].Val, eps[e].Actions[t-1])
				}
			}
			c.lstm.ForwardBatch(st, n, &ws.zx, &ws.zh)
			c.heads[t].ForwardBatch(logits, st.H, n)
		}
		opts := c.specs[t].NumOptions
		for e := 0; e < n; e++ {
			var a int
			if e >= lead && t < p {
				a = prefix[t]
				if a < 0 || a >= opts {
					panic(fmt.Sprintf("rl: forced action %d out of range for %s", a, c.specs[t].Name))
				}
			} else {
				a = stats.CategoricalU(draw(e, t), nn.SoftmaxInto(ws.prob[:opts], logits.ColInto(ws.logitsV[:opts], e)))
			}
			eps[e].Actions[t] = a
		}
	}
	return eps
}

// leadStep runs step t of a round's shared prefix on one column — the input
// is the start or the embedding of actions[t−1], which every rollout took —
// and spreads the step's cache and logits over the record's n real columns,
// clearing the pad columns. A column's values do not depend on the width it
// runs on, so the record is bit-identical to an n-wide step.
func (c *Controller) leadStep(t int, actions []int, n int) {
	ws := &c.ws
	st := &ws.lead[t&1]
	if t == 0 {
		st.HPrev, st.CPrev = &ws.leadZero, &ws.leadZero
		st.X.CopyColFrom(0, c.start.Val, 0)
	} else {
		prev := &ws.lead[(t-1)&1]
		st.HPrev, st.CPrev = prev.H, prev.C
		st.X.CopyColFrom(0, c.embeds[t-1].Val, actions[t-1])
	}
	c.lstm.ForwardBatch(st, 1, &ws.leadZX, &ws.leadZH)
	opts := c.specs[t].NumOptions
	ws.leadLog.R, ws.leadLog.W = opts, ws.leadLogBuf[:4*opts]
	c.heads[t].ForwardBatch(&ws.leadLog, st.H, 1)

	rs := &ws.rec.steps[t]
	for _, m := range [...][2]*nn.Mat{{rs.X, st.X}, {rs.I, st.I}, {rs.F, st.F}, {rs.G, st.G}, {rs.O, st.O}, {rs.C, st.C}, {rs.H, st.H}, {rs.TC, st.TC}} {
		m[0].SpreadColFrom(m[1], 0, n)
	}
	ws.rec.logits[t].SpreadColFrom(&ws.leadLog, 0, n)
}

// Credit is the policy-gradient credit of one episode (Eq. 1): step t's
// logit gradient is scaled by Adv·Scale·γ^(T−1−t) and its entropy bonus by
// Scale. Steps with Mask[t] false get neither — their actions were forced,
// not chosen (the optimizer selector's switch semantics). A nil Mask
// credits every step.
type Credit struct {
	Adv, Scale float64
	Mask       []bool
}

// Accumulate adds the REINFORCE gradient of one episode into the parameter
// gradient buffers following Eq. (1): each step t receives the advantage
// (reward − baseline) discounted by gamma^(T−1−t), and the whole episode is
// scaled by batchScale = 1/m. Callers accumulate every episode of a batch
// and then Update once.
func (c *Controller) Accumulate(ep *Episode, advantage, gamma, batchScale float64) {
	c.AccumulateRound([]*Episode{ep}, []Credit{{Adv: advantage, Scale: batchScale}}, gamma)
}

// AccumulateMaskedBatch accumulates a batch of episodes with per-episode
// advantages, one scale and one step mask (nil activates every step). The
// episodes may come from any of the samplers.
func (c *Controller) AccumulateMaskedBatch(eps []*Episode, advs []float64, gamma, batchScale float64, active []bool) {
	if len(advs) != len(eps) {
		panic("rl: advantage count mismatch")
	}
	credits := make([]Credit, len(eps))
	for i, adv := range advs {
		credits[i] = Credit{Adv: adv, Scale: batchScale, Mask: active}
	}
	c.AccumulateRound(eps, credits, gamma)
}

// AccumulateRound adds the REINFORCE gradients of a set of episodes, episode
// e under credits[e], in one lockstep BPTT. The gradients are bit-identical
// to one Accumulate-style pass per episode in slice order; an episode may
// appear more than once, and views of the current round may be mixed with
// detached episodes of earlier ones.
func (c *Controller) AccumulateRound(eps []*Episode, credits []Credit, gamma float64) {
	b := len(eps)
	if b == 0 {
		return
	}
	T := len(c.specs)
	if len(credits) != b {
		panic("rl: credit count mismatch")
	}
	ws := &c.ws
	for e, ep := range eps {
		if len(ep.Actions) != T {
			panic("rl: episode length mismatch")
		}
		ep.checkLive()
		if m := credits[e].Mask; m != nil && len(m) != T {
			panic("rl: mask length mismatch")
		}
	}

	ws.training(b)
	seqs := ws.seqs[:b]
	for e, ep := range eps {
		seqs[e] = nn.SeqRef{Steps: ep.rec.steps, Col: ep.col}
	}
	ws.dH.Zero()
	for t := T - 1; t >= 0; t-- {
		disc := pow(gamma, float64(T-1-t))
		opts := c.specs[t].NumOptions
		ws.dLog.R, ws.dLog.W = opts, ws.dLogBuf[:opts*ws.dLog.C]
		prob, dl := ws.prob[:opts], ws.dl[:opts]
		for e, ep := range eps {
			cr := credits[e]
			active := cr.Mask == nil || cr.Mask[t]
			scale := cr.Adv * cr.Scale * disc
			if !active {
				scale = 0
			}
			// The logit gradient (softmax − onehot(action))·scale, plus the
			// gradient of −coef·H(π): coef·p_i(log p_i + H).
			nn.SoftmaxInto(prob, ep.rec.logits[t].ColInto(ws.logitsV[:opts], ep.col))
			copy(dl, prob)
			dl[ep.Actions[t]] -= 1
			for i := range dl {
				dl[i] *= scale
			}
			if c.EntropyCoef > 0 && active {
				h := nn.Entropy(prob)
				for i := range dl {
					dl[i] += c.EntropyCoef * cr.Scale * prob[i] * (mathLog(prob[i]+1e-12) + h)
				}
			}
			ws.dLog.SetCol(e, dl)
			// Head t's only gradient adds are this step's, episode by
			// episode: the order of one pass per episode.
			c.heads[t].AccumStepGrads(dl, ep.rec.steps[t].H.ColInto(ws.hv, ep.col))
		}
		ws.dLog.ZeroPad(b)
		c.heads[t].BackwardBatchFlows(&ws.dy, &ws.dLog)
		for i := 0; i < ws.dH.R; i++ {
			// The head's flow plus the flow from step t+1, per real column.
			row := i * ws.dH.C
			for e := 0; e < b; e++ {
				ws.dH.W[row+e] += ws.dy.W[row+e]
			}
		}
		c.lstm.BackwardBatch(t, seqs, ws.dzs[t], &ws.dx, &ws.dH, &ws.dC, t < T-1)
		// The input gradient reaches the start (t = 0) or the embedding
		// column of the previous action, whose only adds are this step's.
		for e, ep := range eps {
			ws.dx.ColInto(ws.dxv, e)
			if t == 0 {
				c.start.Grad.AddCol(0, ws.dxv)
			} else {
				c.embeds[t-1].Grad.AddCol(ep.Actions[t-1], ws.dxv)
			}
		}
	}
	// The LSTM weights take every step's adds: one whole-batch pass in the
	// per-episode order, episode-major with t descending.
	ws.bptt = c.lstm.AccumBPTTGrads(ws.dzs, seqs, ws.bptt)
}
