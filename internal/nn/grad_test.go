package nn

import (
	"fmt"
	"math"
	"testing"

	"nasaic/internal/stats"
)

// Finite-difference gradient checks across random shapes and seeds. The
// analytic gradients of LSTM.Backward, Linear.Backward and LogPGrad must
// match central differences to a relative error below 1e-6 — tight enough
// that any dropped term or transposition shows up immediately, loose enough
// for float64 cancellation noise at eps=1e-5.

const (
	fdEps = 1e-5
	fdTol = 1e-6
)

// relErr is the symmetric relative error with an absolute floor, so tiny
// gradients are compared absolutely (central differences bottom out around
// 1e-10 of the loss scale).
func relErr(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1.0)
	return math.Abs(a-b) / den
}

func randVec(rng *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// checkParamGrads central-differences every parameter weight against the
// accumulated analytic gradient.
func checkParamGrads(t *testing.T, params []*Param, loss func() float64) {
	t.Helper()
	for _, p := range params {
		for i := range p.Val.W {
			orig := p.Val.W[i]
			p.Val.W[i] = orig + fdEps
			up := loss()
			p.Val.W[i] = orig - fdEps
			down := loss()
			p.Val.W[i] = orig
			num := (up - down) / (2 * fdEps)
			if e := relErr(num, p.Grad.W[i]); e > fdTol {
				t.Fatalf("%s[%d]: analytic %.12g vs numeric %.12g (rel err %.3g)",
					p.Name, i, p.Grad.W[i], num, e)
			}
		}
	}
}

// TestLSTMBackwardGradCheckShapes runs a three-step unroll through random
// (input, hidden) shapes and seeds, checking every parameter and the input
// gradients, including the cell-state path across steps.
func TestLSTMBackwardGradCheckShapes(t *testing.T) {
	shapes := []struct{ in, hidden int }{{2, 3}, {5, 4}, {3, 8}, {7, 6}}
	for si, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("in=%d,h=%d,seed=%d", sh.in, sh.hidden, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed*100 + int64(si))
				init := func(p *Param) { p.InitXavier(rng) }
				l := NewLSTM(sh.in, sh.hidden, init)
				const T = 3
				xs := make([][]float64, T)
				for i := range xs {
					xs[i] = randVec(rng, sh.in)
				}
				lossW := randVec(rng, sh.hidden)

				loss := func() float64 {
					st := l.ZeroState()
					var s float64
					for i := 0; i < T; i++ {
						st, _ = l.Forward(xs[i], st)
						// Every step contributes, so gradients flow through
						// both the hidden and the cell paths at every depth.
						for j := range st.H {
							s += lossW[j] * st.H[j] * float64(i+1)
						}
					}
					return s
				}

				// Analytic pass.
				states := make([]LSTMState, T+1)
				caches := make([]*LSTMCache, T)
				states[0] = l.ZeroState()
				for i := 0; i < T; i++ {
					states[i+1], caches[i] = l.Forward(xs[i], states[i])
				}
				dXs := make([][]float64, T)
				var dH, dC []float64
				for i := T - 1; i >= 0; i-- {
					step := make([]float64, sh.hidden)
					for j := range step {
						step[j] = lossW[j] * float64(i+1)
					}
					if dH != nil {
						AccumVec(step, dH)
					}
					var dPrev LSTMState
					dXs[i], dPrev = l.Backward(step, dC, caches[i])
					dH, dC = dPrev.H, dPrev.C
				}

				checkParamGrads(t, l.Params(), loss)
				for i := 0; i < T; i++ {
					for j := range xs[i] {
						orig := xs[i][j]
						xs[i][j] = orig + fdEps
						up := loss()
						xs[i][j] = orig - fdEps
						down := loss()
						xs[i][j] = orig
						num := (up - down) / (2 * fdEps)
						if e := relErr(num, dXs[i][j]); e > fdTol {
							t.Fatalf("dX[%d][%d]: analytic %.12g vs numeric %.12g (rel err %.3g)",
								i, j, dXs[i][j], num, e)
						}
					}
				}
			})
		}
	}
}

// TestBatchBPTTGradCheck central-differences the path the controller
// trains through: ForwardBatch over B columns and T steps with a linear
// head per step, then the head flows, BackwardBatch and AccumBPTTGrads for
// the LSTM weights (heads replay AccumStepGrads). Every LSTM and head
// weight and every input is checked.
func TestBatchBPTTGradCheck(t *testing.T) {
	const in, hidden, opts, B, T = 3, 4, 3, 5, 3
	rng := stats.NewRNG(41)
	init := func(p *Param) { p.InitXavier(rng) }
	l := NewLSTM(in, hidden, init)
	heads := make([]*Linear, T)
	for i := range heads {
		heads[i] = NewLinear(fmt.Sprintf("head%d", i), hidden, opts, init)
	}
	xs := make([]*Mat, T)
	lossW := make([]*Mat, T)
	for i := range xs {
		xs[i] = randMat(rng, in, B)
		lossW[i] = randMat(rng, opts, B)
	}

	// The batched path runs on padded matrices, as the controller does.
	width := PadWidth(B)
	y := NewMat(opts, width)
	loss := func() float64 {
		steps := forwardRun(l, xs, width)
		var s float64
		for i := 0; i < T; i++ {
			heads[i].ForwardBatch(y, steps[i].H, B)
			for j := 0; j < opts; j++ {
				for e := 0; e < B; e++ {
					s += lossW[i].At(j, e) * y.At(j, e)
				}
			}
		}
		return s
	}

	// Analytic pass, the controller's order: flows t descending, then the
	// parameter gradients episode-major with t descending.
	steps := forwardRun(l, xs, width)
	seqs := seqRefs(steps, B)
	dzs := make([]*Mat, T)
	dxs := make([]*Mat, T)
	dH, dC, dy := NewMat(hidden, width), NewMat(hidden, width), NewMat(hidden, width)
	for i := T - 1; i >= 0; i-- {
		heads[i].BackwardBatchFlows(dy, padded(lossW[i], width))
		dH.Add(dy)
		dzs[i], dxs[i] = NewMat(4*hidden, width), NewMat(in, width)
		l.BackwardBatch(i, seqs, dzs[i], dxs[i], dH, dC, i < T-1)
	}
	for e := 0; e < B; e++ {
		for i := T - 1; i >= 0; i-- {
			heads[i].AccumStepGrads(lossW[i].Col(e), steps[i].H.Col(e))
		}
	}
	l.AccumBPTTGrads(dzs, seqs, nil)

	params := l.Params()
	for _, h := range heads {
		params = append(params, h.Params()...)
	}
	checkParamGrads(t, params, loss)
	for i := range xs {
		for j := range xs[i].W {
			orig := xs[i].W[j]
			xs[i].W[j] = orig + fdEps
			up := loss()
			xs[i].W[j] = orig - fdEps
			down := loss()
			xs[i].W[j] = orig
			num := (up - down) / (2 * fdEps)
			got := dxs[i].At(j/B, j%B)
			if e := relErr(num, got); e > fdTol {
				t.Fatalf("dX step %d elem %d: analytic %.12g vs numeric %.12g (rel err %.3g)",
					i, j, got, num, e)
			}
		}
	}
}

// TestLinearBackwardGradCheckShapes checks Linear.Backward across random
// shapes and seeds, parameters and inputs both.
func TestLinearBackwardGradCheckShapes(t *testing.T) {
	shapes := []struct{ in, out int }{{1, 1}, {4, 3}, {6, 9}, {8, 2}}
	for si, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("in=%d,out=%d,seed=%d", sh.in, sh.out, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed*37 + int64(si))
				init := func(p *Param) { p.InitXavier(rng) }
				lin := NewLinear("l", sh.in, sh.out, init)
				x := randVec(rng, sh.in)
				lossW := randVec(rng, sh.out)

				loss := func() float64 {
					y := lin.Forward(x)
					var s float64
					for i := range y {
						s += lossW[i] * y[i]
					}
					return s
				}
				dX := lin.Backward(lossW, x)
				checkParamGrads(t, lin.Params(), loss)
				for j := range x {
					orig := x[j]
					x[j] = orig + fdEps
					up := loss()
					x[j] = orig - fdEps
					down := loss()
					x[j] = orig
					num := (up - down) / (2 * fdEps)
					if e := relErr(num, dX[j]); e > fdTol {
						t.Fatalf("dX[%d]: analytic %.12g vs numeric %.12g (rel err %.3g)", j, dX[j], num, e)
					}
				}
			})
		}
	}
}

// TestLogPGradGradCheck verifies LogPGrad = d(-log softmax[a])/d(logits)
// against central differences across random shapes, seeds and actions.
func TestLogPGradGradCheck(t *testing.T) {
	for _, n := range []int{2, 3, 7, 12} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d,seed=%d", n, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed*11 + int64(n))
				logits := randVec(rng, n)
				for i := range logits {
					logits[i] *= 2
				}
				a := rng.Intn(n)
				loss := func() float64 { return -math.Log(Softmax(logits)[a]) }
				g := LogPGrad(logits, a)
				for i := range logits {
					orig := logits[i]
					logits[i] = orig + fdEps
					up := loss()
					logits[i] = orig - fdEps
					down := loss()
					logits[i] = orig
					num := (up - down) / (2 * fdEps)
					if e := relErr(num, g[i]); e > fdTol {
						t.Fatalf("logit[%d] (action %d): analytic %.12g vs numeric %.12g (rel err %.3g)",
							i, a, g[i], num, e)
					}
				}
			})
		}
	}
}

// TestSoftmaxEdgeCases pins the numerically delicate inputs: huge and tiny
// logits, uniform, one-hot-like gaps, and single elements.
func TestSoftmaxEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		logits []float64
		want   func(t *testing.T, p []float64)
	}{
		{"large positive", []float64{1e4, 1e4 + 1, 1e4 - 1}, func(t *testing.T, p []float64) {
			if !(p[1] > p[0] && p[0] > p[2]) {
				t.Errorf("ordering lost under large logits: %v", p)
			}
		}},
		{"large negative", []float64{-1e4, -1e4 - 2}, func(t *testing.T, p []float64) {
			if !(p[0] > p[1]) || p[1] <= 0 {
				t.Errorf("large negative logits collapsed: %v", p)
			}
		}},
		{"huge magnitude", []float64{1e308, -1e308}, func(t *testing.T, p []float64) {
			if p[0] != 1 || p[1] != 0 {
				t.Errorf("extreme gap should saturate to one-hot: %v", p)
			}
		}},
		{"uniform", []float64{3, 3, 3, 3}, func(t *testing.T, p []float64) {
			for _, v := range p {
				if math.Abs(v-0.25) > 1e-15 {
					t.Errorf("uniform logits should give uniform probs: %v", p)
				}
			}
		}},
		{"one-hot gap", []float64{0, 800, 0}, func(t *testing.T, p []float64) {
			if p[1] < 1-1e-12 {
				t.Errorf("dominant logit should take all mass: %v", p)
			}
		}},
		{"single", []float64{-42}, func(t *testing.T, p []float64) {
			if p[0] != 1 {
				t.Errorf("single logit must give probability 1: %v", p)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Softmax(tc.logits)
			var sum float64
			for _, v := range p {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Fatalf("invalid probability in %v", p)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("probabilities sum to %.17g", sum)
			}
			tc.want(t, p)
		})
	}
}

// TestEntropyEdgeCases pins Entropy on the distribution shapes the
// controller actually visits: uniform (max), one-hot (zero), near-one-hot,
// and distributions containing exact zeros.
func TestEntropyEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		p    []float64
		want float64
		tol  float64
	}{
		{"uniform 2", []float64{0.5, 0.5}, math.Log(2), 1e-15},
		{"uniform 8", []float64{.125, .125, .125, .125, .125, .125, .125, .125}, math.Log(8), 1e-12},
		{"one-hot", []float64{0, 1, 0, 0}, 0, 0},
		{"with zeros", []float64{0.5, 0, 0.5, 0}, math.Log(2), 1e-15},
		{"near one-hot", []float64{1 - 1e-12, 1e-12}, 1e-12 * (math.Log(1e12) + 1), 1e-13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Entropy(tc.p)
			if math.Abs(got-tc.want) > tc.tol || math.IsNaN(got) {
				t.Errorf("Entropy(%v) = %.17g, want %.17g ± %g", tc.p, got, tc.want, tc.tol)
			}
		})
	}
	// Softmax of huge uniform logits must still yield the maximum entropy.
	if h := Entropy(Softmax([]float64{1e6, 1e6, 1e6})); math.Abs(h-math.Log(3)) > 1e-12 {
		t.Errorf("entropy of uniform softmax = %.17g, want ln 3", h)
	}
}
