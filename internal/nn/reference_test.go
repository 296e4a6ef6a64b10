package nn

import (
	"fmt"
	"math"
)

// This file is the matrix-vector reference path: one sequence at a time,
// one column at a time. No production code runs it; every batched kernel in
// mat.go and batch.go is checked against it column by column, bit for bit
// (batch_test.go, fuzz_test.go), and the gradient checks use it as the
// scalar model of the LSTM and linear layers.

// MulVec computes y = M·x, allocating y.
func (m *Mat) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.R), x)
}

// MulVecInto computes dst = M·x into the caller's buffer and returns dst.
// Each output element accumulates over j in ascending order into a single
// sum — the order MulMatInto keeps per column.
func (m *Mat) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.C {
		panic(fmt.Sprintf("nn: MulVec shape mismatch %dx%d · %d", m.R, m.C, len(x)))
	}
	if len(dst) != m.R {
		panic(fmt.Sprintf("nn: MulVec destination length %d, want %d", len(dst), m.R))
	}
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulTVec computes x = Mᵀ·y, allocating x.
func (m *Mat) MulTVec(y []float64) []float64 {
	return m.MulTVecInto(make([]float64, m.C), y)
}

// MulTVecInto computes dst = Mᵀ·y into the caller's buffer and returns dst.
// Contributions accumulate over i in ascending order; zero y rows are
// skipped, which MulTMatInto's column sums must match bit for bit.
func (m *Mat) MulTVecInto(dst, y []float64) []float64 {
	if len(y) != m.R {
		panic(fmt.Sprintf("nn: MulTVec shape mismatch %dx%d ᵀ· %d", m.R, m.C, len(y)))
	}
	if len(dst) != m.C {
		panic(fmt.Sprintf("nn: MulTVec destination length %d, want %d", len(dst), m.C))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.R; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := m.W[i*m.C : (i+1)*m.C]
		for j, v := range row {
			dst[j] += v * yi
		}
	}
	return dst
}

// Transpose returns a new C×R matrix with Mᵀ's elements.
func (m *Mat) Transpose() *Mat {
	out := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.W[j*m.R+i] = m.W[i*m.C+j]
		}
	}
	return out
}

// AddVec computes a + b, allocating.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("nn: AddVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AccumVec accumulates dst += src.
func AccumVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: AccumVec length mismatch")
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// ScaleVec computes s·a, allocating.
func ScaleVec(a []float64, s float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

// LSTMCache stores the intermediates of one reference forward step for
// backprop.
type LSTMCache struct {
	X          []float64
	HPrev      []float64
	CPrev      []float64
	I, F, G, O []float64 // post-activation gates
	C, H       []float64
}

// LSTMState is the recurrent state (h, c) of one sequence.
type LSTMState struct {
	H, C []float64
}

// ZeroState returns an all-zero initial state.
func (l *LSTM) ZeroState() LSTMState {
	return LSTMState{H: make([]float64, l.HiddenSize), C: make([]float64, l.HiddenSize)}
}

// Forward runs one time step of one sequence: (x, prev) → (next state,
// cache).
func (l *LSTM) Forward(x []float64, prev LSTMState) (LSTMState, *LSTMCache) {
	H := l.HiddenSize
	z := l.Wx.Val.MulVec(x)
	AccumVec(z, l.Wh.Val.MulVec(prev.H))
	for i := range z {
		z[i] += l.B.Val.W[i]
	}

	cache := &LSTMCache{
		X:     append([]float64(nil), x...),
		HPrev: append([]float64(nil), prev.H...),
		CPrev: append([]float64(nil), prev.C...),
		I:     make([]float64, H), F: make([]float64, H),
		G: make([]float64, H), O: make([]float64, H),
		C: make([]float64, H), H: make([]float64, H),
	}
	for i := 0; i < H; i++ {
		cache.I[i] = sigmoid(z[i])
		cache.F[i] = sigmoid(z[H+i])
		cache.G[i] = math.Tanh(z[2*H+i])
		cache.O[i] = sigmoid(z[3*H+i])
		cache.C[i] = cache.F[i]*prev.C[i] + cache.I[i]*cache.G[i]
		cache.H[i] = cache.O[i] * math.Tanh(cache.C[i])
	}
	return LSTMState{H: cache.H, C: cache.C}, cache
}

// Backward backpropagates one time step of one sequence. dH and dC are the
// gradients flowing into this step's output state (dC may be nil). It
// accumulates parameter gradients and returns (dX, gradient w.r.t. the
// previous state).
func (l *LSTM) Backward(dH, dC []float64, cache *LSTMCache) (dX []float64, dPrev LSTMState) {
	H := l.HiddenSize
	dz := make([]float64, 4*H)
	dCPrev := make([]float64, H)

	for i := 0; i < H; i++ {
		tc := math.Tanh(cache.C[i])
		dOut := dH[i]
		dCt := dOut * cache.O[i] * (1 - tc*tc)
		if dC != nil {
			dCt += dC[i]
		}
		dI := dCt * cache.G[i]
		dF := dCt * cache.CPrev[i]
		dG := dCt * cache.I[i]
		dO := dOut * tc
		dCPrev[i] = dCt * cache.F[i]

		dz[i] = dI * cache.I[i] * (1 - cache.I[i])
		dz[H+i] = dF * cache.F[i] * (1 - cache.F[i])
		dz[2*H+i] = dG * (1 - cache.G[i]*cache.G[i])
		dz[3*H+i] = dO * cache.O[i] * (1 - cache.O[i])
	}

	l.AccumStepGrads(dz, cache.X, cache.HPrev)

	dX = l.Wx.Val.MulTVec(dz)
	dHPrev := l.Wh.Val.MulTVec(dz)
	return dX, LSTMState{H: dHPrev, C: dCPrev}
}

// AccumStepGrads adds one (sequence, step) contribution to the parameter
// gradients: Wx += dz·xᵀ, Wh += dz·hPrevᵀ, B += dz, in that order. A run of
// these calls, sequence-major with t descending, is the add order
// AccumBPTTGrads must reproduce bit for bit.
func (l *LSTM) AccumStepGrads(dz, x, hPrev []float64) {
	l.Wx.Grad.AddOuter(dz, x)
	l.Wh.Grad.AddOuter(dz, hPrev)
	for i := range dz {
		l.B.Grad.W[i] += dz[i]
	}
}

// Forward computes y = W·x + b, allocating y.
func (l *Linear) Forward(x []float64) []float64 {
	return l.ForwardInto(make([]float64, l.W.Val.R), x)
}

// ForwardInto computes dst = W·x + b into the caller's buffer and returns
// dst.
func (l *Linear) ForwardInto(dst, x []float64) []float64 {
	l.W.Val.MulVecInto(dst, x)
	for i := range dst {
		dst[i] += l.B.Val.W[i]
	}
	return dst
}

// Backward accumulates parameter gradients for dY at input x and returns dX.
func (l *Linear) Backward(dY, x []float64) []float64 {
	l.AccumStepGrads(dY, x)
	return l.W.Val.MulTVec(dY)
}
