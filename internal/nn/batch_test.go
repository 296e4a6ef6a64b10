package nn

import (
	"fmt"
	"math"
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
// Each runs both unpadded, which puts the 8-, 4- and scalar-column kernel
// blocks to work, and padded to PadWidth, the width the controller uses.
var batchWidths = []int{1, 4, 11, 13}

// forEachWidth runs f, as subtest B=n, for every real width n of
// batchWidths at each matrix width it is run on: n itself and PadWidth(n).
func forEachWidth(t *testing.T, f func(t *testing.T, n, width int)) {
	for _, n := range batchWidths {
		t.Run(fmt.Sprintf("B=%d", n), func(t *testing.T) {
			widths := []int{n}
			if p := PadWidth(n); p != n {
				widths = append(widths, p)
			}
			for _, width := range widths {
				t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) { f(t, n, width) })
			}
		})
	}
}

// dirtyMat returns an r×c matrix filled with a stale value, as a buffer
// reused from an earlier round would be: nothing may read it before writing
// it, and pad columns must be cleared before they enter a kernel.
func dirtyMat(r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = 1e300
	}
	return m
}

// padded returns x (r×n) copied into the first n columns of an r×width
// matrix whose pad columns are zero.
func padded(x *Mat, width int) *Mat {
	out := NewMat(x.R, width)
	for e := 0; e < x.C; e++ {
		out.CopyColFrom(e, x, e)
	}
	return out
}

// forwardRun runs the lockstep forward pass over the columns of xs[t]
// (I×n each) on matrices width columns wide, in dirty buffers, and returns
// the step caches.
func forwardRun(l *LSTM, xs []*Mat, width int) []LSTMBatchCache {
	n, H := xs[0].C, l.HiddenSize
	zero := NewMat(H, width)
	zx, zh := dirtyMat(4*H, width), dirtyMat(4*H, width)
	steps := make([]LSTMBatchCache, len(xs))
	hp, cp := zero, zero
	for t, x := range xs {
		s := &steps[t]
		*s = LSTMBatchCache{
			X: dirtyMat(l.InputSize, width), HPrev: hp, CPrev: cp,
			I: dirtyMat(H, width), F: dirtyMat(H, width), G: dirtyMat(H, width), O: dirtyMat(H, width),
			C: dirtyMat(H, width), H: dirtyMat(H, width), TC: dirtyMat(H, width),
		}
		for e := 0; e < n; e++ {
			s.X.CopyColFrom(e, x, e)
		}
		l.ForwardBatch(s, n, zx, zh)
		hp, cp = s.H, s.C
	}
	return steps
}

// seqRefs names the first n columns of one forward run.
func seqRefs(steps []LSTMBatchCache, n int) []SeqRef {
	seqs := make([]SeqRef, n)
	for e := range seqs {
		seqs[e] = SeqRef{Steps: steps, Col: e}
	}
	return seqs
}

func TestLSTMForwardBatchColumnsMatchForward(t *testing.T) {
	forEachWidth(t, lstmForwardColumns)
}

func lstmForwardColumns(t *testing.T, B, width int) {
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

	steps := forwardRun(l, xs, width)
	for step := 0; step < T; step++ {
		bc := &steps[step]
		for e := 0; e < B; e++ {
			var seqCache *LSTMCache
			seqStates[e], seqCache = l.Forward(xs[step].Col(e), seqStates[e])
			// Every cached column must equal the reference cache field by
			// field (it later feeds the backward pass).
			pairs := [][2][]float64{
				{bc.X.Col(e), seqCache.X}, {bc.HPrev.Col(e), seqCache.HPrev},
				{bc.CPrev.Col(e), seqCache.CPrev}, {bc.I.Col(e), seqCache.I},
				{bc.F.Col(e), seqCache.F}, {bc.G.Col(e), seqCache.G},
				{bc.O.Col(e), seqCache.O}, {bc.C.Col(e), seqCache.C},
				{bc.H.Col(e), seqCache.H},
			}
			for fi, pr := range pairs {
				for i := range pr[0] {
					if pr[0][i] != pr[1][i] {
						t.Fatalf("step %d col %d cache field %d elem %d: %.17g vs %.17g",
							step, e, fi, i, pr[0][i], pr[1][i])
					}
				}
			}
			// TC, which the backward pass reads instead of recomputing, is
			// math.Tanh of C bit for bit.
			for i, c := range bc.C.Col(e) {
				if got, want := bc.TC.At(i, e), math.Tanh(c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d col %d TC[%d] = %.17g, want tanh(C) = %.17g", step, e, i, got, want)
				}
			}
		}
		// The pad columns of X and H, the matrices that enter kernels, are
		// zero whatever the buffers held before.
		for e := B; e < width; e++ {
			for i := 0; i < bc.H.R; i++ {
				if bc.H.At(i, e) != 0 {
					t.Fatalf("step %d: pad column %d of H holds %g", step, e, bc.H.At(i, e))
				}
			}
			for i := 0; i < bc.X.R; i++ {
				if bc.X.At(i, e) != 0 {
					t.Fatalf("step %d: pad column %d of X holds %g", step, e, bc.X.At(i, e))
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
	forEachWidth(t, lstmBackwardColumns)
}

func lstmBackwardColumns(t *testing.T, B, width int) {
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
	steps := forwardRun(lBat, xs, width)
	seqs := seqRefs(steps, B)
	dH, dC, dy := NewMat(6, width), dirtyMat(6, width), dirtyMat(6, width)
	dzs := make([]*Mat, T)
	dxs := make([]*Mat, T)
	for i := T - 1; i >= 0; i-- {
		headsBat[i].BackwardBatchFlows(dy, padded(dys[i], width))
		dH.Add(dy)
		dzs[i], dxs[i] = dirtyMat(4*6, width), dirtyMat(4, width)
		lBat.BackwardBatch(i, seqs, dzs[i], dxs[i], dH, dC, i < T-1)
	}
	for e := 0; e < B; e++ {
		for i := T - 1; i >= 0; i-- {
			headsBat[i].AccumStepGrads(dys[i].Col(e), steps[i].H.Col(e))
		}
	}
	lBat.AccumBPTTGrads(dzs, seqs, nil)

	// The flows out of the kernels are zero in the pad columns, whatever
	// the buffers held before.
	for _, m := range append([]*Mat{dH}, dxs...) {
		for i := 0; i < m.R; i++ {
			for e := B; e < width; e++ {
				if m.At(i, e) != 0 {
					t.Fatalf("pad column %d of a %dx%d flow holds %g", e, m.R, m.C, m.At(i, e))
				}
			}
		}
	}

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
	forEachWidth(t, func(t *testing.T, B, width int) {
		x := randMat(rng, 6, B)
		y := dirtyMat(4, width)
		lin.ForwardBatch(y, padded(x, width), B)
		dy := randMat(rng, 4, B)
		dx := dirtyMat(6, width)
		lin.BackwardBatchFlows(dx, padded(dy, width))
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
	})
}

// TestAccumBPTTGradsMatchesAccumStepGrads pins the whole-batch gradient
// accumulation to its definition: one reference AccumStepGrads call per
// (sequence, step), sequence-major with t descending, into gradients that
// already hold values. Shapes put 8-, 4- and scalar-column blocks in each
// gradient row, and exact zeros in dz exercise the reference's skipped rows.
// The dz pad columns hold NaN: they must never enter the k order.
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
		width := PadWidth(sh.B)
		dzs := make([]*Mat, sh.T)
		steps := make([]LSTMBatchCache, sh.T)
		for i := range dzs {
			dzs[i] = padded(randMat(rng, 4*sh.hidden, sh.B), width)
			dzs[i].ZeroPad(sh.B)
			for r := 0; r < dzs[i].R; r++ {
				for e := sh.B; e < width; e++ {
					dzs[i].Set(r, e, math.NaN())
				}
			}
			for j := 0; j < len(dzs[i].W); j += 5 {
				dzs[i].W[j] = 0
			}
			steps[i] = LSTMBatchCache{X: randMat(rng, sh.in, sh.B), HPrev: randMat(rng, sh.hidden, sh.B)}
		}
		dz := make([]float64, 4*sh.hidden)
		for e := 0; e < sh.B; e++ {
			for i := sh.T - 1; i >= 0; i-- {
				ref.AccumStepGrads(dzs[i].ColInto(dz, e), steps[i].X.Col(e), steps[i].HPrev.Col(e))
			}
		}
		buf := got.AccumBPTTGrads(dzs, seqRefs(steps, sh.B), nil)
		if len(buf) < sh.B*sh.T*(sh.in+sh.hidden+4) {
			t.Fatalf("returned scratch holds %d floats, want at least %d", len(buf), sh.B*sh.T*(sh.in+sh.hidden+4))
		}
		for pi, p := range ref.Params() {
			for i, want := range p.Grad.W {
				if g := got.Params()[pi].Grad.W[i]; g != want {
					t.Fatalf("in=%d h=%d B=%d T=%d %s[%d]: %.17g vs reference %.17g",
						sh.in, sh.hidden, sh.B, sh.T, p.Name, i, g, want)
				}
			}
		}
	}
	// No steps is a no-op; more sequences than dz columns panics.
	l := NewLSTM(2, 2, func(*Param) {})
	l.AccumBPTTGrads(nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("AccumBPTTGrads: expected panic on more sequences than columns")
		}
	}()
	l.AccumBPTTGrads([]*Mat{NewMat(8, 2)}, make([]SeqRef, 3), nil)
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
// other directly, bit for bit (only meaningful where the SIMD path exists).
// The row counts put full 4-row tiles, 8-row tiles and 1-3 leftover rows in
// both products (MulTMat's output rows are M's columns); the widths put 8-
// and 4-column tile blocks and scalar tails in each row. The last shapes are
// W3's controller: 192×48·48×16 and its transpose.
func TestSIMDMatchesPureGo(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD support on this machine")
	}
	rng := stats.NewRNG(29)
	type shape struct{ r, c, b int }
	shapes := []shape{{5, 7, 8}, {9, 4, 11}, {16, 16, 13}, {3, 3, 23}, {192, 48, 16}, {48, 192, 16}}
	rows := []int{4, 5, 7, 8, 192}
	for ri, r := range rows {
		for _, b := range []int{4, 8, 12, 16} {
			shapes = append(shapes, shape{r, rows[(ri+2)%len(rows)], b})
		}
	}
	for _, sh := range shapes {
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
			if math.Float64bits(simdMul.W[i]) != math.Float64bits(goMul.W[i]) {
				t.Fatalf("MulMat %dx%dx%d elem %d: simd %.17g vs go %.17g",
					sh.r, sh.c, sh.b, i, simdMul.W[i], goMul.W[i])
			}
		}
		for i := range simdTMul.W {
			if math.Float64bits(simdTMul.W[i]) != math.Float64bits(goTMul.W[i]) {
				t.Fatalf("MulTMat %dx%dx%d elem %d: simd %.17g vs go %.17g",
					sh.r, sh.c, sh.b, i, simdTMul.W[i], goTMul.W[i])
			}
		}
	}
}

// accumBPTTSIMDvsGo runs AccumBPTTGrads on the same inputs with the SIMD
// path on and off, from the same nonzero gradients (the heads of every
// accumulation chain), and fails on the first parameter-gradient element
// whose bits differ. vals supplies the gradients, dz, X and HPrev in turn,
// cycling; dz's pad columns hold NaN, which must never enter the k order.
func accumBPTTSIMDvsGo(t *testing.T, in, hidden, B, T int, vals []float64) {
	t.Helper()
	next := 0
	fill := func(w []float64) {
		for i := range w {
			w[i] = vals[next%len(vals)]
			next++
		}
	}
	simd, pure := NewLSTM(in, hidden, func(*Param) {}), NewLSTM(in, hidden, func(*Param) {})
	for pi, p := range simd.Params() {
		fill(p.Grad.W)
		copy(pure.Params()[pi].Grad.W, p.Grad.W)
	}
	width := PadWidth(B)
	dzs := make([]*Mat, T)
	steps := make([]LSTMBatchCache, T)
	for i := range dzs {
		dzs[i] = NewMat(4*hidden, width)
		for r := 0; r < dzs[i].R; r++ {
			fill(dzs[i].W[r*width : r*width+B])
			for e := B; e < width; e++ {
				dzs[i].Set(r, e, math.NaN())
			}
		}
		steps[i] = LSTMBatchCache{X: NewMat(in, B), HPrev: NewMat(hidden, B)}
		fill(steps[i].X.W)
		fill(steps[i].HPrev.W)
	}
	seqs := seqRefs(steps, B)
	simd.AccumBPTTGrads(dzs, seqs, nil)
	simdEnabled = false
	pure.AccumBPTTGrads(dzs, seqs, nil)
	simdEnabled = true
	for pi, p := range simd.Params() {
		for i, g := range p.Grad.W {
			if want := pure.Params()[pi].Grad.W[i]; math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("in=%d h=%d B=%d T=%d %s[%d]: simd %.17g vs go %.17g",
					in, hidden, B, T, p.Name, i, g, want)
			}
		}
	}
}

// TestAccumBPTTGradsSIMDMatchesPureGo pins the 4-row accumulation tiles to
// the pure-Go per-row kernel bit for bit. Shapes put 8-column tile blocks
// and 1-7 column tails in the gradient rows; the last is W3's controller
// (hidden 48, 11 episodes, 20 steps).
func TestAccumBPTTGradsSIMDMatchesPureGo(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD support on this machine")
	}
	rng := stats.NewRNG(37)
	vals := make([]float64, 4099)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, sh := range []struct{ in, hidden, B, T int }{
		{1, 1, 1, 1}, {8, 8, 4, 3}, {13, 12, 11, 4}, {20, 7, 13, 2}, {16, 17, 5, 6}, {48, 48, 11, 20},
	} {
		accumBPTTSIMDvsGo(t, sh.in, sh.hidden, sh.B, sh.T, vals)
	}
}

// stepCache returns a forward step of an LSTM with in inputs and hidden
// units, width columns wide.
func stepCache(in, hidden, width int) *LSTMBatchCache {
	z := NewMat(hidden, width)
	return &LSTMBatchCache{
		X: NewMat(in, width), HPrev: z, CPrev: z,
		I: NewMat(hidden, width), F: NewMat(hidden, width), G: NewMat(hidden, width), O: NewMat(hidden, width),
		C: NewMat(hidden, width), H: NewMat(hidden, width), TC: NewMat(hidden, width),
	}
}

func TestBatchShapePanics(t *testing.T) {
	rng := stats.NewRNG(23)
	init := func(p *Param) { p.InitXavier(rng) }
	l := NewLSTM(3, 4, init)
	m := NewMat(2, 3)
	for name, f := range map[string]func(){
		"mulmat shape":   func() { m.MulMatInto(NewMat(2, 2), NewMat(4, 2)) },
		"mulmat dst":     func() { m.MulMatInto(NewMat(3, 2), NewMat(3, 2)) },
		"multmat shape":  func() { m.MulTMatInto(NewMat(3, 2), NewMat(4, 2)) },
		"multmat dst":    func() { m.MulTMatInto(NewMat(2, 2), NewMat(2, 2)) },
		"mulvec dst":     func() { m.MulVecInto(make([]float64, 1), []float64{1, 2, 3}) },
		"multvec dst":    func() { m.MulTVecInto(make([]float64, 1), []float64{1, 2}) },
		"setcol":         func() { m.SetCol(0, []float64{1}) },
		"colinto":        func() { m.ColInto(make([]float64, 1), 0) },
		"copycol rows":   func() { m.CopyColFrom(0, NewMat(3, 1), 0) },
		"copycol range":  func() { m.CopyColFrom(5, NewMat(2, 1), 0) },
		"add shape":      func() { m.Add(NewMat(3, 3)) },
		"fwdbatch input": func() { l.ForwardBatch(stepCache(2, 4, 4), 4, NewMat(16, 4), NewMat(16, 4)) },
		"fwdbatch state": func() { l.ForwardBatch(stepCache(3, 3, 4), 4, NewMat(16, 4), NewMat(16, 4)) },
		"fwdbatch width": func() { l.ForwardBatch(stepCache(3, 4, 4), 5, NewMat(16, 4), NewMat(16, 4)) },
		"bwdbatch shapes": func() {
			l.BackwardBatch(0, make([]SeqRef, 3), NewMat(16, 2), NewMat(3, 2), NewMat(4, 2), NewMat(4, 2), false)
		},
		"bwdbatch output": func() {
			l.BackwardBatch(0, make([]SeqRef, 1), NewMat(16, 2), NewMat(4, 2), NewMat(4, 2), NewMat(4, 2), false)
		},
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
