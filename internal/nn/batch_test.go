package nn

import (
	"fmt"
	"testing"

	"nasaic/internal/stats"
)

func randMat(rng *stats.RNG, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = rng.NormFloat64()
	}
	return m
}

// Every batched kernel must agree bit-for-bit, column by column, with its
// matrix-vector counterpart — that identity is what makes the lockstep
// controller path safe to enable unconditionally.

func TestMulMatColumnsMatchMulVec(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, sh := range []struct{ r, c, b int }{{1, 1, 1}, {4, 3, 5}, {7, 9, 2}, {16, 16, 8}} {
		m := randMat(rng, sh.r, sh.c)
		x := randMat(rng, sh.c, sh.b)
		y := NewMat(sh.r, sh.b)
		m.MulMatInto(y, x)
		for e := 0; e < sh.b; e++ {
			want := m.MulVec(x.Col(e))
			got := y.Col(e)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d·%dx%d col %d row %d: %.17g vs %.17g",
						sh.r, sh.c, sh.c, sh.b, e, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulTMatColumnsMatchMulTVec(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, sh := range []struct{ r, c, b int }{{1, 1, 1}, {4, 3, 5}, {9, 7, 3}, {16, 16, 8}} {
		m := randMat(rng, sh.r, sh.c)
		y := randMat(rng, sh.r, sh.b)
		// Sprinkle exact zeros to exercise the skip path.
		for i := 0; i < len(y.W); i += 3 {
			y.W[i] = 0
		}
		x := NewMat(sh.c, sh.b)
		m.MulTMatInto(x, y)
		for e := 0; e < sh.b; e++ {
			want := m.MulTVec(y.Col(e))
			got := x.Col(e)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("col %d elem %d: %.17g vs %.17g", e, j, got[j], want[j])
				}
			}
		}
	}
}

// batchWidths are the column counts the controller runs: a single episode,
// a small batch, and the widths of one NASAIC round at φ=10 (11 rollouts
// sampled; 13 episodes trained with the combined rollout and a replay).
// Together they cover the 8-, 4- and scalar-column kernel blocks.
var batchWidths = []int{1, 4, 11, 13}

func TestLSTMForwardBatchColumnsMatchForward(t *testing.T) {
	for _, B := range batchWidths {
		t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) { lstmForwardColumns(t, B) })
	}
}

func lstmForwardColumns(t *testing.T, B int) {
	rng := stats.NewRNG(7 + int64(B))
	init := func(p *Param) { p.InitXavier(rng) }
	l := NewLSTM(5, 6, init)
	const T = 3

	// Sequential reference: B independent rollouts of the same cell.
	seqStates := make([]LSTMState, B)
	for e := range seqStates {
		seqStates[e] = l.ZeroState()
	}
	xs := make([]*Mat, T)
	for i := range xs {
		xs[i] = randMat(rng, 5, B)
	}

	batState := l.ZeroBatchState(B)
	for step := 0; step < T; step++ {
		var batCache *LSTMBatchCache
		batState, batCache = l.ForwardBatch(xs[step], batState)
		caches := batCache.SeqCaches()
		for e := 0; e < B; e++ {
			var seqCache *LSTMCache
			seqStates[e], seqCache = l.Forward(xs[step].Col(e), seqStates[e])
			for i := range seqStates[e].H {
				if h := batState.H.At(i, e); h != seqStates[e].H[i] {
					t.Fatalf("step %d col %d H[%d]: %.17g vs %.17g", step, e, i, h, seqStates[e].H[i])
				}
				if c := batState.C.At(i, e); c != seqStates[e].C[i] {
					t.Fatalf("step %d col %d C[%d]: %.17g vs %.17g", step, e, i, c, seqStates[e].C[i])
				}
			}
			// The extracted per-sequence cache must equal the sequential one
			// field by field (it later feeds sequential Backward).
			pairs := [][2][]float64{
				{caches[e].X, seqCache.X}, {caches[e].HPrev, seqCache.HPrev},
				{caches[e].CPrev, seqCache.CPrev}, {caches[e].I, seqCache.I},
				{caches[e].F, seqCache.F}, {caches[e].G, seqCache.G},
				{caches[e].O, seqCache.O}, {caches[e].C, seqCache.C},
				{caches[e].H, seqCache.H},
			}
			for fi, pr := range pairs {
				for i := range pr[0] {
					if pr[0][i] != pr[1][i] {
						t.Fatalf("step %d col %d cache field %d elem %d mismatch", step, e, fi, i)
					}
				}
			}
		}
	}
}

// TestLSTMBackwardBatchMatchesSequential drives a full two-step BPTT through
// both paths — the reference Backward per sequence, and the batched flows
// plus AccumBPTTGrads and the episode-major head replay the controller
// runs — and requires bit-identical parameter gradients and input
// gradients.
func TestLSTMBackwardBatchMatchesSequential(t *testing.T) {
	for _, B := range batchWidths {
		t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) { lstmBackwardColumns(t, B) })
	}
}

func lstmBackwardColumns(t *testing.T, B int) {
	build := func() (*LSTM, []*Linear) {
		rng := stats.NewRNG(11)
		init := func(p *Param) { p.InitXavier(rng) }
		l := NewLSTM(4, 6, init)
		heads := []*Linear{NewLinear("h0", 6, 3, init), NewLinear("h1", 6, 3, init)}
		return l, heads
	}
	lSeq, headsSeq := build()
	lBat, headsBat := build()

	const T = 2
	rng := stats.NewRNG(13 + int64(B))
	xs := make([]*Mat, T)
	for i := range xs {
		xs[i] = randMat(rng, 4, B)
	}
	dys := make([]*Mat, T)
	for i := range dys {
		dys[i] = randMat(rng, 3, B)
	}

	// Sequential: per sequence, forward T steps then BPTT.
	seqCaches := make([][]*LSTMCache, B)
	seqHs := make([][][]float64, B)
	for e := 0; e < B; e++ {
		st := lSeq.ZeroState()
		seqCaches[e] = make([]*LSTMCache, T)
		seqHs[e] = make([][]float64, T)
		for i := 0; i < T; i++ {
			st, seqCaches[e][i] = lSeq.Forward(xs[i].Col(e), st)
			seqHs[e][i] = st.H
		}
	}
	seqDX := make([][][]float64, B)
	for e := 0; e < B; e++ {
		dh := make([]float64, 6)
		var dc []float64
		seqDX[e] = make([][]float64, T)
		for i := T - 1; i >= 0; i-- {
			step := headsSeq[i].Backward(dys[i].Col(e), seqHs[e][i])
			AccumVec(step, dh)
			var dPrev LSTMState
			seqDX[e][i], dPrev = lSeq.Backward(step, dc, seqCaches[e][i])
			dh, dc = dPrev.H, dPrev.C
		}
	}

	// Batched: lockstep forward, lockstep flows, episode-major grad replay.
	batCaches := make([][]*LSTMCache, T)
	hsMat := make([]*Mat, T)
	st := lBat.ZeroBatchState(B)
	for i := 0; i < T; i++ {
		var bc *LSTMBatchCache
		st, bc = lBat.ForwardBatch(xs[i], st)
		batCaches[i] = bc.SeqCaches()
		hsMat[i] = st.H
	}
	dH := NewMat(6, B)
	var dC *Mat
	dzs := make([]*Mat, T)
	dxs := make([]*Mat, T)
	for i := T - 1; i >= 0; i-- {
		dh := headsBat[i].BackwardBatchFlows(dys[i])
		dh.Add(dH)
		var dPrev LSTMBatchState
		dzs[i], dxs[i], dPrev = lBat.BackwardBatch(dh, dC, batCaches[i])
		dH, dC = dPrev.H, dPrev.C
	}
	var xsK, hpsK [][]float64
	for e := 0; e < B; e++ {
		for i := T - 1; i >= 0; i-- {
			headsBat[i].AccumStepGrads(dys[i].Col(e), batCaches[i][e].H)
			xsK = append(xsK, batCaches[i][e].X)
			hpsK = append(hpsK, batCaches[i][e].HPrev)
		}
	}
	lBat.AccumBPTTGrads(dzs, xsK, hpsK)

	// Input gradients, column by column.
	for e := 0; e < B; e++ {
		for i := 0; i < T; i++ {
			got := dxs[i].Col(e)
			for j := range got {
				if got[j] != seqDX[e][i][j] {
					t.Fatalf("dX step %d col %d elem %d: %.17g vs %.17g",
						i, e, j, got[j], seqDX[e][i][j])
				}
			}
		}
	}
	// Parameter gradients, buffer by buffer.
	check := func(name string, a, b *Param) {
		t.Helper()
		for i := range a.Grad.W {
			if a.Grad.W[i] != b.Grad.W[i] {
				t.Fatalf("%s grad[%d]: %.17g (seq) vs %.17g (batched)", name, i, a.Grad.W[i], b.Grad.W[i])
			}
		}
	}
	check("Wx", lSeq.Wx, lBat.Wx)
	check("Wh", lSeq.Wh, lBat.Wh)
	check("B", lSeq.B, lBat.B)
	for i := range headsSeq {
		check(fmt.Sprintf("head%d.W", i), headsSeq[i].W, headsBat[i].W)
		check(fmt.Sprintf("head%d.B", i), headsSeq[i].B, headsBat[i].B)
	}
}

func TestLinearForwardBatchMatchesForward(t *testing.T) {
	rng := stats.NewRNG(17)
	init := func(p *Param) { p.InitXavier(rng) }
	lin := NewLinear("l", 6, 4, init)
	for _, B := range batchWidths {
		x := randMat(rng, 6, B)
		y := lin.ForwardBatch(x)
		dy := randMat(rng, 4, B)
		dx := lin.BackwardBatchFlows(dy)
		for e := 0; e < B; e++ {
			want := lin.Forward(x.Col(e))
			got := y.Col(e)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("B=%d col %d elem %d: %.17g vs %.17g", B, e, i, got[i], want[i])
				}
			}
			wantDX := lin.Backward(dy.Col(e), x.Col(e))
			gotDX := dx.Col(e)
			for i := range wantDX {
				if gotDX[i] != wantDX[i] {
					t.Fatalf("B=%d col %d dX[%d]: %.17g vs %.17g", B, e, i, gotDX[i], wantDX[i])
				}
			}
		}
	}
}

// TestAccumBPTTGradsMatchesAccumStepGrads pins the whole-batch gradient
// accumulation to its definition: one reference AccumStepGrads call per
// (sequence, step), sequence-major with t descending, into gradients that
// already hold values. Shapes put 8-, 4- and scalar-column blocks in each
// gradient row, and exact zeros in dz exercise the reference's skipped rows.
func TestAccumBPTTGradsMatchesAccumStepGrads(t *testing.T) {
	for _, sh := range []struct{ in, hidden, B, T int }{
		{1, 1, 1, 1}, {5, 6, 4, 3}, {13, 12, 11, 4}, {20, 7, 13, 2},
	} {
		rng := stats.NewRNG(int64(31 + sh.in + sh.B))
		init := func(p *Param) { p.InitXavier(rng) }
		ref := NewLSTM(sh.in, sh.hidden, init)
		got := NewLSTM(sh.in, sh.hidden, init)
		for pi, p := range ref.Params() {
			for i := range p.Grad.W {
				v := rng.NormFloat64()
				p.Grad.W[i] = v
				got.Params()[pi].Grad.W[i] = v
			}
		}
		dzs := make([]*Mat, sh.T)
		for i := range dzs {
			dzs[i] = randMat(rng, 4*sh.hidden, sh.B)
			for j := 0; j < len(dzs[i].W); j += 5 {
				dzs[i].W[j] = 0
			}
		}
		var xs, hps [][]float64
		dz := make([]float64, 4*sh.hidden)
		for e := 0; e < sh.B; e++ {
			for i := sh.T - 1; i >= 0; i-- {
				x, hp := randVec(rng, sh.in), randVec(rng, sh.hidden)
				xs, hps = append(xs, x), append(hps, hp)
				ref.AccumStepGrads(dzs[i].ColInto(dz, e), x, hp)
			}
		}
		got.AccumBPTTGrads(dzs, xs, hps)
		for pi, p := range ref.Params() {
			for i, want := range p.Grad.W {
				if g := got.Params()[pi].Grad.W[i]; g != want {
					t.Fatalf("in=%d h=%d B=%d T=%d %s[%d]: %.17g vs reference %.17g",
						sh.in, sh.hidden, sh.B, sh.T, p.Name, i, g, want)
				}
			}
		}
	}
	// No steps is a no-op; a cache count that disagrees with dz panics.
	l := NewLSTM(2, 2, func(*Param) {})
	l.AccumBPTTGrads(nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("AccumBPTTGrads: expected panic on cache count mismatch")
		}
	}()
	l.AccumBPTTGrads([]*Mat{NewMat(8, 2)}, make([][]float64, 1), make([][]float64, 2))
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := stats.NewRNG(19)
	m := randMat(rng, 5, 9)
	tt := m.Transpose()
	if tt.R != 9 || tt.C != 5 {
		t.Fatalf("transpose shape %dx%d", tt.R, tt.C)
	}
	back := tt.Transpose()
	for i := range m.W {
		if back.W[i] != m.W[i] {
			t.Fatalf("round trip changed element %d", i)
		}
	}
	if tt.At(3, 2) != m.At(2, 3) {
		t.Fatal("transpose element mismatch")
	}
}

// TestKernelsPureGoFallback re-runs the kernel, BPTT and gradient suites
// with the SIMD fast path disabled, so the pure-Go register-blocked kernels
// stay verified on machines where AVX would otherwise mask them.
func TestKernelsPureGoFallback(t *testing.T) {
	if !simdEnabled {
		t.Skip("SIMD already disabled; the main tests cover the pure-Go path")
	}
	simdEnabled = false
	defer func() { simdEnabled = true }()
	t.Run("MulMat", TestMulMatColumnsMatchMulVec)
	t.Run("MulTMat", TestMulTMatColumnsMatchMulTVec)
	t.Run("ForwardBatch", TestLSTMForwardBatchColumnsMatchForward)
	t.Run("BackwardBatch", TestLSTMBackwardBatchMatchesSequential)
	t.Run("AccumBPTTGrads", TestAccumBPTTGradsMatchesAccumStepGrads)
	t.Run("BatchGradCheck", TestBatchBPTTGradCheck)
}

// TestSIMDMatchesPureGo compares the two kernel implementations against each
// other directly, bit for bit, on shapes that exercise the 8/4/scalar block
// split (only meaningful where the SIMD path exists).
func TestSIMDMatchesPureGo(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD support on this machine")
	}
	rng := stats.NewRNG(29)
	for _, sh := range []struct{ r, c, b int }{{5, 7, 8}, {9, 4, 11}, {16, 16, 13}, {3, 3, 23}} {
		m := randMat(rng, sh.r, sh.c)
		x := randMat(rng, sh.c, sh.b)
		y := randMat(rng, sh.r, sh.b)
		simdMul, simdTMul := NewMat(sh.r, sh.b), NewMat(sh.c, sh.b)
		m.MulMatInto(simdMul, x)
		m.MulTMatInto(simdTMul, y)
		simdEnabled = false
		goMul, goTMul := NewMat(sh.r, sh.b), NewMat(sh.c, sh.b)
		m.MulMatInto(goMul, x)
		m.MulTMatInto(goTMul, y)
		simdEnabled = true
		for i := range simdMul.W {
			if simdMul.W[i] != goMul.W[i] {
				t.Fatalf("MulMat %dx%dx%d elem %d: simd %.17g vs go %.17g",
					sh.r, sh.c, sh.b, i, simdMul.W[i], goMul.W[i])
			}
		}
		for i := range simdTMul.W {
			if simdTMul.W[i] != goTMul.W[i] {
				t.Fatalf("MulTMat %dx%dx%d elem %d: simd %.17g vs go %.17g",
					sh.r, sh.c, sh.b, i, simdTMul.W[i], goTMul.W[i])
			}
		}
	}
}

func TestBatchShapePanics(t *testing.T) {
	rng := stats.NewRNG(23)
	init := func(p *Param) { p.InitXavier(rng) }
	l := NewLSTM(3, 4, init)
	m := NewMat(2, 3)
	for name, f := range map[string]func(){
		"mulmat shape":    func() { m.MulMatInto(NewMat(2, 2), NewMat(4, 2)) },
		"mulmat dst":      func() { m.MulMatInto(NewMat(3, 2), NewMat(3, 2)) },
		"multmat shape":   func() { m.MulTMatInto(NewMat(3, 2), NewMat(4, 2)) },
		"multmat dst":     func() { m.MulTMatInto(NewMat(2, 2), NewMat(2, 2)) },
		"mulvec dst":      func() { m.MulVecInto(make([]float64, 1), []float64{1, 2, 3}) },
		"multvec dst":     func() { m.MulTVecInto(make([]float64, 1), []float64{1, 2}) },
		"setcol":          func() { m.SetCol(0, []float64{1}) },
		"colinto":         func() { m.ColInto(make([]float64, 1), 0) },
		"copycol rows":    func() { m.CopyColFrom(0, NewMat(3, 1), 0) },
		"copycol range":   func() { m.CopyColFrom(5, NewMat(2, 1), 0) },
		"add shape":       func() { m.Add(NewMat(3, 3)) },
		"fwdbatch input":  func() { l.ForwardBatch(NewMat(2, 2), l.ZeroBatchState(2)) },
		"fwdbatch state":  func() { l.ForwardBatch(NewMat(3, 2), l.ZeroBatchState(3)) },
		"bwdbatch shapes": func() { l.BackwardBatch(NewMat(4, 2), nil, make([]*LSTMCache, 3)) },
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
