package nn

import (
	"fmt"
	"testing"

	"nasaic/internal/stats"
)

// Micro-benchmarks of the controller's two execution paths at the
// experiment's scale: hidden width 48 (core.DefaultConfig), a rollout of
// T=27 decisions (W1's decision sequence), 8-way logit heads, and batch
// widths matching the 1+φ episodes of one exploration step. The batched
// numbers include everything the policy-gradient loop pays for — the head
// logits on the forward, the episode-major gradient replay on the backward —
// in buffers padded to PadWidth and reused across iterations, so seq vs
// batched ns/op is the real speedup, not a kernel-only figure. CI runs these
// as part of the bench smoke.

const (
	benchHidden = 48
	benchT      = 27
	benchOpts   = 8
)

type benchNet struct {
	lstm  *LSTM
	heads []*Linear
}

func newBenchNet(seed int64) *benchNet {
	rng := stats.NewRNG(seed)
	init := func(p *Param) { p.InitXavier(rng) }
	n := &benchNet{lstm: NewLSTM(benchHidden, benchHidden, init)}
	for t := 0; t < benchT; t++ {
		n.heads = append(n.heads, NewLinear(fmt.Sprintf("h%d", t), benchHidden, benchOpts, init))
	}
	return n
}

func benchInputs(seed int64, b int) []*Mat {
	rng := stats.NewRNG(seed)
	xs := make([]*Mat, benchT)
	for t := range xs {
		xs[t] = randMat(rng, benchHidden, b)
	}
	return xs
}

// forwardSeq rolls out b sequences one at a time (the pre-batching path).
func (n *benchNet) forwardSeq(xs []*Mat, b int) ([][]*LSTMCache, [][][]float64) {
	caches := make([][]*LSTMCache, b)
	hs := make([][][]float64, b)
	for e := 0; e < b; e++ {
		caches[e] = make([]*LSTMCache, benchT)
		hs[e] = make([][]float64, benchT)
		st := n.lstm.ZeroState()
		for t := 0; t < benchT; t++ {
			st, caches[e][t] = n.lstm.Forward(xs[t].Col(e), st)
			hs[e][t] = st.H
			_ = n.heads[t].Forward(st.H)
		}
	}
	return caches, hs
}

// batchBufs is the lockstep path's memory for b sequences, padded to
// PadWidth(b) columns and reused across iterations as the controller reuses
// its workspace across rounds.
type batchBufs struct {
	n             int
	steps         []LSTMBatchCache
	seqs          []SeqRef
	zx, zh        *Mat
	logits        []*Mat
	dH, dC, dy    *Mat
	dzs, dxs, dys []*Mat
	scratch       []float64
}

func newBatchBufs(xs, dys []*Mat, b int) *batchBufs {
	p := PadWidth(b)
	steps := forwardRun(NewLSTM(benchHidden, benchHidden, func(*Param) {}), xs, p)
	bb := &batchBufs{
		n: b, steps: steps, seqs: seqRefs(steps, b),
		zx: NewMat(4*benchHidden, p), zh: NewMat(4*benchHidden, p),
		dH: NewMat(benchHidden, p), dC: NewMat(benchHidden, p), dy: NewMat(benchHidden, p),
	}
	for t := 0; t < benchT; t++ {
		bb.logits = append(bb.logits, NewMat(benchOpts, p))
		bb.dzs = append(bb.dzs, NewMat(4*benchHidden, p))
		bb.dxs = append(bb.dxs, NewMat(benchHidden, p))
		if dys != nil {
			bb.dys = append(bb.dys, padded(dys[t], p))
		}
	}
	return bb
}

// forwardBatch rolls out the sequences in lockstep into the reused step
// caches (whose X columns newBatchBufs filled).
func (n *benchNet) forwardBatch(bb *batchBufs) {
	for t := range bb.steps {
		n.lstm.ForwardBatch(&bb.steps[t], bb.n, bb.zx, bb.zh)
		n.heads[t].ForwardBatch(bb.logits[t], bb.steps[t].H, bb.n)
	}
}

// bpttSeq backpropagates b sequences one at a time.
func (n *benchNet) bpttSeq(dys []*Mat, caches [][]*LSTMCache, hs [][][]float64, b int) {
	for e := 0; e < b; e++ {
		dh := make([]float64, benchHidden)
		var dc []float64
		for t := benchT - 1; t >= 0; t-- {
			step := n.heads[t].Backward(dys[t].Col(e), hs[e][t])
			AccumVec(step, dh)
			var dPrev LSTMState
			_, dPrev = n.lstm.Backward(step, dc, caches[e][t])
			dh, dc = dPrev.H, dPrev.C
		}
	}
}

// bpttBatch backpropagates the sequences in lockstep: batched flows plus
// the episode-major parameter-gradient replay (the bit-identity contract).
func (n *benchNet) bpttBatch(bb *batchBufs) {
	bb.dH.Zero()
	hcol := make([]float64, benchHidden)
	dycol := make([]float64, benchOpts)
	for t := benchT - 1; t >= 0; t-- {
		n.heads[t].BackwardBatchFlows(bb.dy, bb.dys[t])
		bb.dH.Add(bb.dy)
		n.lstm.BackwardBatch(t, bb.seqs, bb.dzs[t], bb.dxs[t], bb.dH, bb.dC, t < benchT-1)
		for e := 0; e < bb.n; e++ {
			n.heads[t].AccumStepGrads(bb.dys[t].ColInto(dycol, e), bb.steps[t].H.ColInto(hcol, e))
		}
	}
	bb.scratch = n.lstm.AccumBPTTGrads(bb.dzs, bb.seqs, bb.scratch)
}

func zeroGrads(n *benchNet) {
	n.lstm.Wx.ZeroGrad()
	n.lstm.Wh.ZeroGrad()
	n.lstm.B.ZeroGrad()
	for _, h := range n.heads {
		h.W.ZeroGrad()
		h.B.ZeroGrad()
	}
}

func benchForward(b *testing.B, batch int, batched bool) {
	n := newBenchNet(1)
	xs := benchInputs(2, batch)
	bb := newBatchBufs(xs, nil, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			n.forwardBatch(bb)
		} else {
			n.forwardSeq(xs, batch)
		}
	}
}

func benchForwardBPTT(b *testing.B, batch int, batched bool) {
	n := newBenchNet(1)
	xs := benchInputs(2, batch)
	dys := make([]*Mat, benchT)
	rng := stats.NewRNG(3)
	for t := range dys {
		dys[t] = randMat(rng, benchOpts, batch)
	}
	bb := newBatchBufs(xs, dys, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			n.forwardBatch(bb)
			n.bpttBatch(bb)
		} else {
			caches, hs := n.forwardSeq(xs, batch)
			n.bpttSeq(dys, caches, hs, batch)
		}
		zeroGrads(n)
	}
}

// Kernel-level benchmarks: one controller-sized matrix against eight
// columns, batched kernel vs eight matrix-vector calls.

func BenchmarkKernelMulVecX8(b *testing.B) {
	rng := stats.NewRNG(1)
	m := randMat(rng, 4*benchHidden, benchHidden)
	x := randMat(rng, benchHidden, 8)
	dst := make([]float64, 4*benchHidden)
	col := make([]float64, benchHidden)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < 8; e++ {
			x.ColInto(col, e)
			m.MulVecInto(dst, col)
		}
	}
}

func BenchmarkKernelMulMatB8(b *testing.B) {
	rng := stats.NewRNG(1)
	m := randMat(rng, 4*benchHidden, benchHidden)
	x := randMat(rng, benchHidden, 8)
	dst := NewMat(4*benchHidden, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulMatInto(dst, x)
	}
}

func BenchmarkKernelMulTVecX8(b *testing.B) {
	rng := stats.NewRNG(1)
	m := randMat(rng, 4*benchHidden, benchHidden)
	y := randMat(rng, 4*benchHidden, 8)
	dst := make([]float64, benchHidden)
	col := make([]float64, 4*benchHidden)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < 8; e++ {
			y.ColInto(col, e)
			m.MulTVecInto(dst, col)
		}
	}
}

func BenchmarkKernelMulTMatB8(b *testing.B) {
	rng := stats.NewRNG(1)
	m := randMat(rng, 4*benchHidden, benchHidden)
	y := randMat(rng, 4*benchHidden, 8)
	dst := NewMat(benchHidden, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulTMatInto(dst, y)
	}
}

func BenchmarkForwardSeqB8(b *testing.B)   { benchForward(b, 8, false) }
func BenchmarkForwardBatchB8(b *testing.B) { benchForward(b, 8, true) }

func BenchmarkForwardSeqB16(b *testing.B)   { benchForward(b, 16, false) }
func BenchmarkForwardBatchB16(b *testing.B) { benchForward(b, 16, true) }

func BenchmarkForwardBPTTSeqB8(b *testing.B)   { benchForwardBPTT(b, 8, false) }
func BenchmarkForwardBPTTBatchB8(b *testing.B) { benchForwardBPTT(b, 8, true) }

func BenchmarkForwardBPTTSeqB16(b *testing.B)   { benchForwardBPTT(b, 16, false) }
func BenchmarkForwardBPTTBatchB16(b *testing.B) { benchForwardBPTT(b, 16, true) }
