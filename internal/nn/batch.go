package nn

import "math"

// This file is the LSTM's execution path: B sequences step in lockstep, one
// column per sequence. Column b of every operation is bit-identical to the
// matrix-vector reference (reference_test.go) on column b — same
// accumulation order, same per-element expressions — so internal/rl can put
// any set of episodes into one batch without changing a single bit of the
// training trajectory.

// LSTMBatchState is the recurrent state of B lockstep sequences; H and C are
// HiddenSize×B matrices, one column per sequence.
type LSTMBatchState struct {
	H, C *Mat
}

// ZeroBatchState returns an all-zero initial state for b sequences.
func (l *LSTM) ZeroBatchState(b int) LSTMBatchState {
	return LSTMBatchState{H: NewMat(l.HiddenSize, b), C: NewMat(l.HiddenSize, b)}
}

// LSTMBatchCache stores the intermediates of one lockstep forward step. X,
// HPrev and CPrev reference the caller's matrices (valid until the caller
// reuses those buffers); the gate and state matrices are owned by the cache.
type LSTMBatchCache struct {
	X            *Mat // I × B (reference)
	HPrev, CPrev *Mat // H × B (references)
	I, F, G, O   *Mat // H × B post-activation gates
	C, H         *Mat // H × B
}

// SeqCaches splits the batch cache into per-sequence LSTMCaches, copying
// each column out into one shared arena (a single allocation for all B
// caches). The resulting caches are self-contained — exactly what the
// one-sequence reference Forward produces for that sequence — so an episode
// sampled in one batch can be backpropagated in another.
func (bc *LSTMBatchCache) SeqCaches() []*LSTMCache {
	b := bc.H.C
	in := bc.X.R
	h := bc.H.R
	per := in + 8*h
	arena := make([]float64, b*per)
	out := make([]*LSTMCache, b)
	for e := 0; e < b; e++ {
		buf := arena[e*per : (e+1)*per]
		take := func(n int) []float64 {
			s := buf[:n:n]
			buf = buf[n:]
			return s
		}
		c := &LSTMCache{
			X:     bc.X.ColInto(take(in), e),
			HPrev: bc.HPrev.ColInto(take(h), e),
			CPrev: bc.CPrev.ColInto(take(h), e),
			I:     bc.I.ColInto(take(h), e),
			F:     bc.F.ColInto(take(h), e),
			G:     bc.G.ColInto(take(h), e),
			O:     bc.O.ColInto(take(h), e),
			C:     bc.C.ColInto(take(h), e),
			H:     bc.H.ColInto(take(h), e),
		}
		out[e] = c
	}
	return out
}

// batchScratch returns the two 4H×B pre-activation scratch matrices, resized
// when the batch width changes.
func (l *LSTM) batchScratch(b int) (zx, zh *Mat) {
	if l.bzx == nil || l.bzx.C != b {
		l.bzx = NewMat(4*l.HiddenSize, b)
		l.bzh = NewMat(4*l.HiddenSize, b)
	}
	return l.bzx, l.bzh
}

// ForwardBatch runs one lockstep time step for B sequences: (x I×B, prev) →
// (next state, cache). Column b of every output is bit-identical to the
// reference Forward of column b.
func (l *LSTM) ForwardBatch(x *Mat, prev LSTMBatchState) (LSTMBatchState, *LSTMBatchCache) {
	H := l.HiddenSize
	b := x.C
	if x.R != l.InputSize {
		panic("nn: ForwardBatch input rows mismatch")
	}
	if prev.H.R != H || prev.H.C != b || prev.C.R != H || prev.C.C != b {
		panic("nn: ForwardBatch state shape mismatch")
	}
	zx, zh := l.batchScratch(b)
	l.Wx.Val.MulMatInto(zx, x)
	l.Wh.Val.MulMatInto(zh, prev.H)

	cache := &LSTMBatchCache{
		X: x, HPrev: prev.H, CPrev: prev.C,
		I: NewMat(H, b), F: NewMat(H, b),
		G: NewMat(H, b), O: NewMat(H, b),
		C: NewMat(H, b), H: NewMat(H, b),
	}
	bias := l.B.Val.W
	for i := 0; i < H; i++ {
		bi, bf, bg, bo := bias[i], bias[H+i], bias[2*H+i], bias[3*H+i]
		zxi, zhi := zx.W[i*b:(i+1)*b], zh.W[i*b:(i+1)*b]
		zxf, zhf := zx.W[(H+i)*b:(H+i+1)*b], zh.W[(H+i)*b:(H+i+1)*b]
		zxg, zhg := zx.W[(2*H+i)*b:(2*H+i+1)*b], zh.W[(2*H+i)*b:(2*H+i+1)*b]
		zxo, zho := zx.W[(3*H+i)*b:(3*H+i+1)*b], zh.W[(3*H+i)*b:(3*H+i+1)*b]
		cp := prev.C.W[i*b : (i+1)*b]
		oi := cache.I.W[i*b : (i+1)*b]
		of := cache.F.W[i*b : (i+1)*b]
		og := cache.G.W[i*b : (i+1)*b]
		oo := cache.O.W[i*b : (i+1)*b]
		oc := cache.C.W[i*b : (i+1)*b]
		oh := cache.H.W[i*b : (i+1)*b]
		for e := 0; e < b; e++ {
			// Mirrors the reference step exactly: z = (Wx·x + Wh·h) + b,
			// then the gate nonlinearities and state update in Forward's
			// expression order.
			vi := sigmoid(zxi[e] + zhi[e] + bi)
			vf := sigmoid(zxf[e] + zhf[e] + bf)
			vg := math.Tanh(zxg[e] + zhg[e] + bg)
			vo := sigmoid(zxo[e] + zho[e] + bo)
			vc := vf*cp[e] + vi*vg
			oi[e], of[e], og[e], oo[e] = vi, vf, vg, vo
			oc[e] = vc
			oh[e] = vo * math.Tanh(vc)
		}
	}
	return LSTMBatchState{H: cache.H, C: cache.C}, cache
}

// BackwardBatch backpropagates one lockstep time step for B sequences. dH
// (H×B) is the gradient flowing into this step's output state; dC may be nil
// on the first backward step. caches holds the per-sequence forward caches
// of this step (column order). It returns the
// pre-activation gate gradients dz (4H×B), the input gradient dx (I×B), and
// the gradient w.r.t. the previous state.
//
// Parameter gradients are NOT accumulated here: callers pass every step's dz
// to AccumBPTTGrads, which adds them in the per-sequence order, so the
// floating-point accumulation into the gradient buffers is bit-identical to
// B reference Backward passes.
func (l *LSTM) BackwardBatch(dH, dC *Mat, caches []*LSTMCache) (dz, dx *Mat, dPrev LSTMBatchState) {
	H := l.HiddenSize
	b := dH.C
	if dH.R != H || len(caches) != b {
		panic("nn: BackwardBatch shape mismatch")
	}
	if dC != nil && (dC.R != H || dC.C != b) {
		panic("nn: BackwardBatch dC shape mismatch")
	}
	dz = NewMat(4*H, b)
	dCPrev := NewMat(H, b)
	for e := 0; e < b; e++ {
		cache := caches[e]
		for i := 0; i < H; i++ {
			tc := math.Tanh(cache.C[i])
			dOut := dH.W[i*b+e]
			dCt := dOut * cache.O[i] * (1 - tc*tc)
			if dC != nil {
				dCt += dC.W[i*b+e]
			}
			dI := dCt * cache.G[i]
			dF := dCt * cache.CPrev[i]
			dG := dCt * cache.I[i]
			dO := dOut * tc
			dCPrev.W[i*b+e] = dCt * cache.F[i]

			dz.W[i*b+e] = dI * cache.I[i] * (1 - cache.I[i])
			dz.W[(H+i)*b+e] = dF * cache.F[i] * (1 - cache.F[i])
			dz.W[(2*H+i)*b+e] = dG * (1 - cache.G[i]*cache.G[i])
			dz.W[(3*H+i)*b+e] = dO * cache.O[i] * (1 - cache.O[i])
		}
	}
	dx = NewMat(l.InputSize, b)
	l.Wx.Val.MulTMatInto(dx, dz)
	dhPrev := NewMat(H, b)
	l.Wh.Val.MulTMatInto(dhPrev, dz)
	return dz, dx, LSTMBatchState{H: dhPrev, C: dCPrev}
}

// AccumBPTTGrads adds a whole batch's LSTM parameter-gradient contributions
// at once: dzs[t] is the 4H×B gate pre-activation gradient of step t, and
// xs[k], hps[k] are the cached X and HPrev vectors indexed by
// k = e·T + (T−1−t) — sequence-major with t descending, the order in which
// B reference Backward passes apply their per-step AddOuter calls.
//
// Each gradient element's additions happen in exactly that k order into a
// register accumulator, so the result is bit-identical to that AddOuter
// sequence — but every gradient matrix is walked once instead of
// B·T times, with eight independent column accumulators per pass.
func (l *LSTM) AccumBPTTGrads(dzs []*Mat, xs, hps [][]float64) {
	T := len(dzs)
	if T == 0 {
		return
	}
	b := dzs[0].C
	n := b * T
	if len(xs) != n || len(hps) != n {
		panic("nn: AccumBPTTGrads cache count mismatch")
	}
	in, hidden := l.InputSize, l.HiddenSize
	// Flatten the cached vectors into contiguous k-major buffers: the inner
	// loops then stream both operands linearly (and the SIMD kernels can
	// stride through them directly).
	xflat := make([]float64, n*in)
	hflat := make([]float64, n*hidden)
	for k := 0; k < n; k++ {
		copy(xflat[k*in:(k+1)*in], xs[k])
		copy(hflat[k*hidden:(k+1)*hidden], hps[k])
	}
	dzrow := make([]float64, n)
	for i := 0; i < 4*hidden; i++ {
		// Gather row i of every step's dz in k order once; it is then
		// streamed contiguously by both outer-product passes and the bias.
		idx := 0
		for e := 0; e < b; e++ {
			for t := T - 1; t >= 0; t-- {
				dzrow[idx] = dzs[t].W[i*b+e]
				idx++
			}
		}
		accumRowOuter(l.Wx.Grad.W[i*in:(i+1)*in], dzrow, xflat, in)
		accumRowOuter(l.Wh.Grad.W[i*hidden:(i+1)*hidden], dzrow, hflat, hidden)
		g := l.B.Grad.W[i]
		for _, v := range dzrow {
			g += v
		}
		l.B.Grad.W[i] = g
	}
}

// accumRowOuter adds Σ_k dzrow[k]·xflat[k*cols+j] into one gradient row,
// eight columns per register block. Each column's terms add in ascending k
// order through a single accumulator seeded with the existing gradient
// value — the same chain of floating-point additions the per-step AddOuter
// calls would produce.
func accumRowOuter(grow, dzrow, xflat []float64, cols int) {
	n := len(dzrow)
	j := 0
	if simdEnabled && n > 0 {
		for ; j+8 <= cols; j += 8 {
			accumBlock8(&dzrow[0], 1, &xflat[j], cols, n, &grow[j])
		}
		for ; j+4 <= cols; j += 4 {
			accumBlock4(&dzrow[0], 1, &xflat[j], cols, n, &grow[j])
		}
	}
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

// ForwardBatch computes Y = W·X + b over a column batch (X in×B), allocating
// Y. Column b is bit-identical to the reference Forward of column b.
func (l *Linear) ForwardBatch(x *Mat) *Mat {
	y := NewMat(l.W.Val.R, x.C)
	l.W.Val.MulMatInto(y, x)
	for i := 0; i < y.R; i++ {
		bi := l.B.Val.W[i]
		row := y.W[i*y.C : (i+1)*y.C]
		for e := range row {
			row[e] += bi
		}
	}
	return y
}

// BackwardBatchFlows computes dX = Wᵀ·dY over a column batch, without
// touching the parameter gradients (callers replay AccumStepGrads per
// sequence, as with the LSTM).
func (l *Linear) BackwardBatchFlows(dY *Mat) *Mat {
	dx := NewMat(l.W.Val.C, dY.C)
	l.W.Val.MulTMatInto(dx, dY)
	return dx
}
