package nn

import "math"

// This file is the LSTM's execution path: B sequences step in lockstep, one
// column per sequence. Column e of every operation is bit-identical to the
// matrix-vector reference (reference_test.go) on column e — same
// accumulation order, same per-element expressions — so internal/rl can put
// any set of episodes into one batch without changing a single bit of the
// training trajectory.
//
// Callers own every buffer. A batch of n sequences runs on matrices
// PadWidth(n) columns wide: columns 0..n−1 are the real sequences, the rest
// are pad columns. The kernels run over all columns, so their 8- and
// 4-column blocks cover the whole width; the element-wise loops run over the
// n real columns only. Pad columns are zero whenever a matrix enters a
// kernel, and no real column ever reads one: each kernel output column
// depends only on the same input column.

// PadWidth returns n rounded up to a multiple of 4: the column count of the
// matrices n lockstep sequences run on, so no kernel has a scalar column
// tail.
func PadWidth(n int) int { return (n + 3) &^ 3 }

// LSTMBatchCache is one lockstep step of a forward pass: its input, the
// state it starts from, and the intermediates its backward pass reads. X and
// the gate and state matrices are the caller's buffers; HPrev and CPrev are
// the previous step's H and C, or a zero state at the first step.
type LSTMBatchCache struct {
	X            *Mat // I × B input
	HPrev, CPrev *Mat // H × B
	I, F, G, O   *Mat // H × B post-activation gates
	C, H         *Mat // H × B new state
	TC           *Mat // H × B tanh(C), kept for the backward pass
}

// ForwardBatch runs one lockstep step over the first n columns of c: it
// reads X, HPrev and CPrev and writes the gates, the new state and tanh(C),
// whose one math.Tanh call per element feeds both H and TC. zx and zh
// are 4H×B scratch. Column e < n of every output is bit-identical to the
// reference Forward of column e. It clears the pad columns of X before the
// kernels and those of H after the gate loop, so HPrev — the previous step's
// H or a zero state — and every head reading H see zero pads.
func (l *LSTM) ForwardBatch(c *LSTMBatchCache, n int, zx, zh *Mat) {
	H := l.HiddenSize
	b := c.H.C
	if c.X.R != l.InputSize || c.X.C != b {
		panic("nn: ForwardBatch input shape mismatch")
	}
	if c.HPrev.R != H || c.HPrev.C != b || c.CPrev.R != H || c.CPrev.C != b || c.H.R != H {
		panic("nn: ForwardBatch state shape mismatch")
	}
	if n <= 0 || n > b {
		panic("nn: ForwardBatch column count out of range")
	}
	c.X.ZeroPad(n)
	l.Wx.Val.MulMatInto(zx, c.X)
	l.Wh.Val.MulMatInto(zh, c.HPrev)

	bias := l.B.Val.W
	for i := 0; i < H; i++ {
		bi, bf, bg, bo := bias[i], bias[H+i], bias[2*H+i], bias[3*H+i]
		zxi, zhi := zx.W[i*b:i*b+n], zh.W[i*b:i*b+n]
		zxf, zhf := zx.W[(H+i)*b:(H+i)*b+n], zh.W[(H+i)*b:(H+i)*b+n]
		zxg, zhg := zx.W[(2*H+i)*b:(2*H+i)*b+n], zh.W[(2*H+i)*b:(2*H+i)*b+n]
		zxo, zho := zx.W[(3*H+i)*b:(3*H+i)*b+n], zh.W[(3*H+i)*b:(3*H+i)*b+n]
		cp := c.CPrev.W[i*b : i*b+n]
		oi := c.I.W[i*b : i*b+n]
		of := c.F.W[i*b : i*b+n]
		og := c.G.W[i*b : i*b+n]
		oo := c.O.W[i*b : i*b+n]
		oc := c.C.W[i*b : i*b+n]
		oh := c.H.W[i*b : i*b+n]
		otc := c.TC.W[i*b : i*b+n]
		for e := 0; e < n; e++ {
			// Mirrors the reference step exactly: z = (Wx·x + Wh·h) + b,
			// then the gate nonlinearities and state update in Forward's
			// expression order.
			vi := sigmoid(zxi[e] + zhi[e] + bi)
			vf := sigmoid(zxf[e] + zhf[e] + bf)
			vg := math.Tanh(zxg[e] + zhg[e] + bg)
			vo := sigmoid(zxo[e] + zho[e] + bo)
			vc := vf*cp[e] + vi*vg
			oi[e], of[e], og[e], oo[e] = vi, vf, vg, vo
			tc := math.Tanh(vc)
			oc[e], otc[e] = vc, tc
			oh[e] = vo * tc
		}
	}
	c.H.ZeroPad(n)
}

// SeqRef names one sequence of a lockstep forward pass: column Col of every
// step cache in Steps. The columns of one backward batch may come from
// different forward passes, such as a replayed episode next to this round's.
type SeqRef struct {
	Steps []LSTMBatchCache
	Col   int
}

// BackwardBatch backpropagates step t of the sequences seqs; column e of the
// gradient matrices belongs to seqs[e], and len(seqs) is the number of real
// columns. On entry dH holds the gradient flowing into step t's output H and,
// when carry is true, dC the gradient into its cell state C (carry is false
// at the last step, where no cell gradient flows in yet). On return dH and dC
// hold the gradient w.r.t. the previous state, dz (4H×B) the gate
// pre-activation gradient and dx (I×B) the input gradient. dz's pad columns
// are cleared before the kernels, so dx and dH are zero there. tanh(C) is
// read from the forward pass's TC, not recomputed.
//
// Parameter gradients are NOT accumulated here: callers pass every step's dz
// to AccumBPTTGrads, which adds them in the per-sequence order, so the
// floating-point accumulation into the gradient buffers is bit-identical to
// one reference Backward pass per sequence.
func (l *LSTM) BackwardBatch(t int, seqs []SeqRef, dz, dx, dH, dC *Mat, carry bool) {
	H := l.HiddenSize
	b := dH.C
	n := len(seqs)
	if dH.R != H || dC.R != H || dC.C != b || n == 0 || n > b {
		panic("nn: BackwardBatch shape mismatch")
	}
	if dz.R != 4*H || dz.C != b || dx.R != l.InputSize || dx.C != b {
		panic("nn: BackwardBatch output shape mismatch")
	}
	for e, sq := range seqs {
		s := &sq.Steps[t]
		w := s.C.C
		for i := 0; i < H; i++ {
			o := i*w + sq.Col
			ci, cf, cg, co := s.I.W[o], s.F.W[o], s.G.W[o], s.O.W[o]
			tc := s.TC.W[o]
			dOut := dH.W[i*b+e]
			dCt := dOut * co * (1 - tc*tc)
			if carry {
				dCt += dC.W[i*b+e]
			}
			dI := dCt * cg
			dF := dCt * s.CPrev.W[o]
			dG := dCt * ci
			dO := dOut * tc
			dC.W[i*b+e] = dCt * cf

			dz.W[i*b+e] = dI * ci * (1 - ci)
			dz.W[(H+i)*b+e] = dF * cf * (1 - cf)
			dz.W[(2*H+i)*b+e] = dG * (1 - cg*cg)
			dz.W[(3*H+i)*b+e] = dO * co * (1 - co)
		}
	}
	dz.ZeroPad(n)
	l.Wx.Val.MulTMatInto(dx, dz)
	l.Wh.Val.MulTMatInto(dH, dz)
}

// AccumBPTTGrads adds a whole batch's LSTM parameter-gradient contributions
// at once: dzs[t] is the 4H×B gate pre-activation gradient of step t, whose
// column e belongs to seqs[e]. The X and HPrev columns of seqs are taken in
// the order k = e·T + (T−1−t) — sequence-major with t descending, the order
// in which one reference Backward pass per sequence applies its per-step
// AddOuter calls. Pad columns of dzs never enter that order.
//
// Each gradient element's additions happen in exactly that k order into a
// register accumulator, so the result is bit-identical to that AddOuter
// sequence — but every gradient matrix is walked once instead of
// B·T times. With AVX, gate rows run in groups of four (4H is a multiple of
// four): their dz rows are gathered k-major and interleaved, and the 4×8
// accumulation tile keeps eight column chains of four rows in flight.
// Without AVX, rows run one at a time through accumRowOuter.
//
// buf is scratch for the k-major gathers; AccumBPTTGrads returns it, grown
// if it was too short, for the caller to pass again.
func (l *LSTM) AccumBPTTGrads(dzs []*Mat, seqs []SeqRef, buf []float64) []float64 {
	T := len(dzs)
	if T == 0 || len(seqs) == 0 {
		return buf
	}
	b := dzs[0].C
	if len(seqs) > b {
		panic("nn: AccumBPTTGrads more sequences than columns")
	}
	n := len(seqs) * T
	in, hidden := l.InputSize, l.HiddenSize
	if need := n * (in + hidden + 4); cap(buf) < need {
		buf = make([]float64, need)
	}
	// Gather the cached vectors into contiguous k-major buffers: the inner
	// loops then stream both operands linearly (and the SIMD kernels can
	// stride through them directly).
	xflat := buf[:n*in]
	hflat := buf[n*in : n*(in+hidden)]
	k := 0
	for _, sq := range seqs {
		for t := T - 1; t >= 0; t-- {
			s := &sq.Steps[t]
			s.X.ColInto(xflat[k*in:(k+1)*in], sq.Col)
			s.HPrev.ColInto(hflat[k*hidden:(k+1)*hidden], sq.Col)
			k++
		}
	}
	gb := l.B.Grad.W
	if simdEnabled {
		// dz4[4k+r] is row i+r's dz at k: the tile broadcasts the four rows'
		// values of one k from adjacent slots.
		dz4 := buf[n*(in+hidden) : n*(in+hidden+4)]
		for i := 0; i < 4*hidden; i += 4 {
			idx := 0
			for e := range seqs {
				for t := T - 1; t >= 0; t-- {
					w := dzs[t].W[i*b+e:]
					dz4[idx], dz4[idx+1], dz4[idx+2], dz4[idx+3] = w[0], w[b], w[2*b], w[3*b]
					idx += 4
				}
			}
			accumTileOuter(l.Wx.Grad.W[i*in:(i+4)*in], dz4, xflat, in)
			accumTileOuter(l.Wh.Grad.W[i*hidden:(i+4)*hidden], dz4, hflat, hidden)
			for r := 0; r < 4; r++ {
				g := gb[i+r]
				for k := r; k < len(dz4); k += 4 {
					g += dz4[k]
				}
				gb[i+r] = g
			}
		}
		return buf
	}
	dzrow := buf[n*(in+hidden) : n*(in+hidden+1)]
	for i := 0; i < 4*hidden; i++ {
		// Gather row i of every step's dz in k order once; it is then
		// streamed contiguously by both outer-product passes and the bias.
		idx := 0
		for e := range seqs {
			for t := T - 1; t >= 0; t-- {
				dzrow[idx] = dzs[t].W[i*b+e]
				idx++
			}
		}
		accumRowOuter(l.Wx.Grad.W[i*in:(i+1)*in], dzrow, xflat, in)
		accumRowOuter(l.Wh.Grad.W[i*hidden:(i+1)*hidden], dzrow, hflat, hidden)
		g := gb[i]
		for _, v := range dzrow {
			g += v
		}
		gb[i] = g
	}
	return buf
}

// accumTileOuter adds Σ_k dz4[4k+r]·xflat[k*cols+j] into row r of the four
// gradient rows grows (cols wide each): eight columns per 4×8 tile, then the
// cols mod 8 columns one element at a time. Each element's terms add in
// ascending k order through a single accumulator seeded with the existing
// gradient value, as in accumRowOuter.
func accumTileOuter(grows, dz4, xflat []float64, cols int) {
	n := len(dz4) / 4
	j := 0
	for ; j+8 <= cols; j += 8 {
		accumTile4x8(&dz4[0], 1, 4, &xflat[j], cols, n, &grows[j], cols)
	}
	for r := 0; r < 4; r++ {
		for jj := j; jj < cols; jj++ {
			g := grows[r*cols+jj]
			for k := 0; k < n; k++ {
				g += dz4[4*k+r] * xflat[k*cols+jj]
			}
			grows[r*cols+jj] = g
		}
	}
}

// accumRowOuter adds Σ_k dzrow[k]·xflat[k*cols+j] into one gradient row,
// eight columns per register block. Each column's terms add in ascending k
// order through a single accumulator seeded with the existing gradient
// value — the same chain of floating-point additions the per-step AddOuter
// calls would produce.
func accumRowOuter(grow, dzrow, xflat []float64, cols int) {
	j := 0
	for ; j+8 <= cols; j += 8 {
		g0, g1, g2, g3 := grow[j], grow[j+1], grow[j+2], grow[j+3]
		g4, g5, g6, g7 := grow[j+4], grow[j+5], grow[j+6], grow[j+7]
		for k, v := range dzrow {
			x := xflat[k*cols+j : k*cols+j+8 : k*cols+j+8]
			g0 += v * x[0]
			g1 += v * x[1]
			g2 += v * x[2]
			g3 += v * x[3]
			g4 += v * x[4]
			g5 += v * x[5]
			g6 += v * x[6]
			g7 += v * x[7]
		}
		o := grow[j : j+8 : j+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = g0, g1, g2, g3, g4, g5, g6, g7
	}
	for ; j < cols; j++ {
		g := grow[j]
		for k, v := range dzrow {
			g += v * xflat[k*cols+j]
		}
		grow[j] = g
	}
}

// ForwardBatch computes y = W·x + b over a column batch, adding the bias to
// the first n columns; y's pad columns hold W·0 = 0. Column e < n is
// bit-identical to the reference Forward of column e.
func (l *Linear) ForwardBatch(y, x *Mat, n int) {
	l.W.Val.MulMatInto(y, x)
	for i := 0; i < y.R; i++ {
		bi := l.B.Val.W[i]
		row := y.W[i*y.C : i*y.C+n]
		for e := range row {
			row[e] += bi
		}
	}
}

// BackwardBatchFlows computes dx = Wᵀ·dY over a column batch, without
// touching the parameter gradients (callers replay AccumStepGrads per
// sequence, as with the LSTM).
func (l *Linear) BackwardBatchFlows(dx, dY *Mat) {
	l.W.Val.MulTMatInto(dx, dY)
}
