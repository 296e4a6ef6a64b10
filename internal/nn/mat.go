// Package nn is a minimal, dependency-free neural-network library built for
// the NASAIC controller (§IV-①): dense matrices, an LSTM cell with full
// backpropagation-through-time support, linear output heads, softmax
// sampling, and an RMSProp optimizer matching the paper's training setup.
//
// The package has one execution path: B sequences step in lockstep through
// blocked matrix-matrix kernels, one column per sequence (ForwardBatch,
// BackwardBatch, AccumBPTTGrads, see batch.go). The matrix-vector
// formulation of the same math — one sequence, one step, one column at a
// time — lives only in the tests (reference_test.go), as the reference every
// batched kernel is checked against.
//
// The forward step's cache holds everything its backward pass reads,
// tanh(C) included (LSTMBatchCache.TC), so BackwardBatch evaluates no
// activation function: each element's math.Tanh(C) runs once, in
// ForwardBatch.
//
// The batched functions allocate nothing once the caller's scratch is warm:
// every matrix and buffer is the caller's, reused from step to step and
// round to round. n sequences run
// on matrices PadWidth(n) columns wide (a multiple of 4, so 11 → 12 and
// 13 → 16), which the kernels' 8- and 4-column blocks cover without a scalar
// column tail. Pad columns are zero whenever a matrix enters a kernel, the
// element-wise loops touch only the n real columns, and no real column ever
// reads a pad column.
//
// With AVX (simd_amd64.s) the matrix kernels are register tiles: each call
// computes four output rows by eight (or four) columns, or eight rows by
// four columns on four-column matrices, so one load of the right-hand
// operand feeds several rows and up to eight accumulation chains run at
// once. Every output element still has its own
// single accumulator, summed in the reference order with a separate
// multiply and add, so the tiles change no bit; the pure-Go kernels are the
// path without AVX and the reference the tiles are tested against.
//
// Every batched kernel is bit-identical per column to that reference — same
// accumulation order, same per-element operations — so neither the width of
// a batch nor its padding changes a single bit of a training trajectory
// (enforced by differential tests here and in internal/rl). Gradients are
// accumulated across a batch of episodes before each optimizer step, as in
// Eq. (1).
package nn

import "fmt"

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	W    []float64
}

// NewMat returns a zero R×C matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", r, c))
	}
	return &Mat{R: r, C: c, W: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.W[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// Zero clears all elements.
func (m *Mat) Zero() {
	for i := range m.W {
		m.W[i] = 0
	}
}

// ZeroPad clears columns n..C−1, the pad columns of a matrix PadWidth(n)
// columns wide.
func (m *Mat) ZeroPad(n int) {
	if n >= m.C {
		return
	}
	for i := 0; i < m.R; i++ {
		clear(m.W[i*m.C+n : (i+1)*m.C])
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.W, m.W)
	return out
}

// MulMatInto computes dst = M·X, where X is C×B and dst is R×B: B
// matrix-vector products run as one register-blocked kernel. Column b of dst
// is bit-identical to the reference M.MulVec(column b of X) in
// reference_test.go: every output element accumulates over j in ascending
// order into a single sum. With AVX, rows run in groups of four through the
// 4×8 and 4×4 tile kernels (in groups of eight through the 8×4 tile when X
// is four columns wide), which share each load of X across the tile's rows
// and keep eight independent vector chains in flight where the width
// allows; the R mod 4 rows left over, and every row without AVX, run
// through mulRowFrom. dst must not alias m or x.
func (m *Mat) MulMatInto(dst, x *Mat) *Mat {
	if x.R != m.C {
		panic(fmt.Sprintf("nn: MulMat shape mismatch %dx%d · %dx%d", m.R, m.C, x.R, x.C))
	}
	if dst.R != m.R || dst.C != x.C {
		panic(fmt.Sprintf("nn: MulMat destination %dx%d, want %dx%d", dst.R, dst.C, m.R, x.C))
	}
	b := x.C
	i := 0
	if simdEnabled {
		if b == 4 {
			for ; i+8 <= m.R; i += 8 {
				dotTile8x4(&m.W[i*m.C], m.C, 1, &x.W[0], b, m.C, &dst.W[i*b], b)
			}
		}
		for ; i+4 <= m.R; i += 4 {
			e := 0
			for ; e+8 <= b; e += 8 {
				dotTile4x8(&m.W[i*m.C], m.C, 1, &x.W[e], b, m.C, &dst.W[i*b+e], b)
			}
			for ; e+4 <= b; e += 4 {
				dotTile4x4(&m.W[i*m.C], m.C, 1, &x.W[e], b, m.C, &dst.W[i*b+e], b)
			}
			for r := i; r < i+4; r++ {
				m.mulRowFrom(dst, x, r, e)
			}
		}
	}
	for ; i < m.R; i++ {
		m.mulRowFrom(dst, x, i, 0)
	}
	return dst
}

// mulRowFrom computes columns e0..B−1 of row i of dst = M·X. Columns run in
// blocks of eight and four whose accumulators live in registers across the
// whole reduction — through the one-row AVX kernels where available — then
// one at a time.
func (m *Mat) mulRowFrom(dst, x *Mat, i, e0 int) {
	b := x.C
	xw := x.W
	row := m.W[i*m.C : (i+1)*m.C]
	out := dst.W[i*b : (i+1)*b]
	e := e0
	if simdEnabled {
		for ; e+8 <= b; e += 8 {
			dotBlock8(&row[0], 1, &xw[e], b, m.C, &out[e])
		}
		for ; e+4 <= b; e += 4 {
			dotBlock4(&row[0], 1, &xw[e], b, m.C, &out[e])
		}
	}
	for ; e+8 <= b; e += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, v := range row {
			xr := xw[j*b+e : j*b+e+8 : j*b+e+8]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
			s4 += v * xr[4]
			s5 += v * xr[5]
			s6 += v * xr[6]
			s7 += v * xr[7]
		}
		o := out[e : e+8 : e+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; e+4 <= b; e += 4 {
		var s0, s1, s2, s3 float64
		for j, v := range row {
			xr := xw[j*b+e : j*b+e+4 : j*b+e+4]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
		}
		o := out[e : e+4 : e+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; e < b; e++ {
		var s float64
		for j, v := range row {
			s += v * xw[j*b+e]
		}
		out[e] = s
	}
}

// MulTMatInto computes dst = Mᵀ·Y, where Y is R×B and dst is C×B, with the
// same register-blocked scheme as MulMatInto: output rows (columns of M) in
// groups of four, or eight for a four-column Y, through the AVX tiles, the
// rest through mulTRowFrom. Column
// b of dst is bit-identical to the reference M.MulTVec(column b of Y):
// contributions to each output element accumulate over i in ascending order
// into a single sum. The reference additionally skips zero y rows — an
// optimization, not a semantic: with finite inputs (all this package ever
// produces; CheckFinite guards the parameters) adding the skipped ±0
// products to an accumulator that starts at +0 cannot change a single bit,
// which the kernel fuzz targets verify. dst must not alias m or y.
func (m *Mat) MulTMatInto(dst, y *Mat) *Mat {
	if y.R != m.R {
		panic(fmt.Sprintf("nn: MulTMat shape mismatch %dx%d ᵀ· %dx%d", m.R, m.C, y.R, y.C))
	}
	if dst.R != m.C || dst.C != y.C {
		panic(fmt.Sprintf("nn: MulTMat destination %dx%d, want %dx%d", dst.R, dst.C, m.C, y.C))
	}
	b := y.C
	c := m.C
	j := 0
	if simdEnabled {
		if b == 4 {
			for ; j+8 <= c; j += 8 {
				dotTile8x4(&m.W[j], 1, c, &y.W[0], b, m.R, &dst.W[j*b], b)
			}
		}
		for ; j+4 <= c; j += 4 {
			e := 0
			for ; e+8 <= b; e += 8 {
				dotTile4x8(&m.W[j], 1, c, &y.W[e], b, m.R, &dst.W[j*b+e], b)
			}
			for ; e+4 <= b; e += 4 {
				dotTile4x4(&m.W[j], 1, c, &y.W[e], b, m.R, &dst.W[j*b+e], b)
			}
			for r := j; r < j+4; r++ {
				m.mulTRowFrom(dst, y, r, e)
			}
		}
	}
	for ; j < c; j++ {
		m.mulTRowFrom(dst, y, j, 0)
	}
	return dst
}

// mulTRowFrom computes columns e0..B−1 of row j of dst = Mᵀ·Y (j outer so
// the accumulators stay in registers over the i reduction), in the column
// blocks of mulRowFrom.
func (m *Mat) mulTRowFrom(dst, y *Mat, j, e0 int) {
	b := y.C
	c := m.C
	yw := y.W
	mw := m.W
	out := dst.W[j*b : (j+1)*b]
	e := e0
	if simdEnabled {
		for ; e+8 <= b; e += 8 {
			dotBlock8(&mw[j], c, &yw[e], b, m.R, &out[e])
		}
		for ; e+4 <= b; e += 4 {
			dotBlock4(&mw[j], c, &yw[e], b, m.R, &out[e])
		}
	}
	for ; e+8 <= b; e += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i := 0; i < m.R; i++ {
			v := mw[i*c+j]
			yr := yw[i*b+e : i*b+e+8 : i*b+e+8]
			s0 += v * yr[0]
			s1 += v * yr[1]
			s2 += v * yr[2]
			s3 += v * yr[3]
			s4 += v * yr[4]
			s5 += v * yr[5]
			s6 += v * yr[6]
			s7 += v * yr[7]
		}
		o := out[e : e+8 : e+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; e+4 <= b; e += 4 {
		var s0, s1, s2, s3 float64
		for i := 0; i < m.R; i++ {
			v := mw[i*c+j]
			yr := yw[i*b+e : i*b+e+4 : i*b+e+4]
			s0 += v * yr[0]
			s1 += v * yr[1]
			s2 += v * yr[2]
			s3 += v * yr[3]
		}
		o := out[e : e+4 : e+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; e < b; e++ {
		var s float64
		for i := 0; i < m.R; i++ {
			s += mw[i*c+j] * yw[i*b+e]
		}
		out[e] = s
	}
}

// Add accumulates M += other elementwise.
func (m *Mat) Add(other *Mat) {
	if m.R != other.R || m.C != other.C {
		panic(fmt.Sprintf("nn: Add shape mismatch %dx%d += %dx%d", m.R, m.C, other.R, other.C))
	}
	for i, v := range other.W {
		m.W[i] += v
	}
}

// AddOuter accumulates M += y·xᵀ.
func (m *Mat) AddOuter(y, x []float64) {
	if len(y) != m.R || len(x) != m.C {
		panic(fmt.Sprintf("nn: AddOuter shape mismatch %dx%d += %d⊗%d", m.R, m.C, len(y), len(x)))
	}
	for i := 0; i < m.R; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := m.W[i*m.C : (i+1)*m.C]
		for j := range row {
			row[j] += yi * x[j]
		}
	}
}

// Col returns a copy of column j.
func (m *Mat) Col(j int) []float64 {
	return m.ColInto(make([]float64, m.R), j)
}

// ColInto copies column j into the caller's buffer and returns it.
func (m *Mat) ColInto(dst []float64, j int) []float64 {
	if j < 0 || j >= m.C {
		panic(fmt.Sprintf("nn: column %d out of range [0,%d)", j, m.C))
	}
	if len(dst) != m.R {
		panic(fmt.Sprintf("nn: column destination length %d, want %d", len(dst), m.R))
	}
	for i := 0; i < m.R; i++ {
		dst[i] = m.W[i*m.C+j]
	}
	return dst
}

// SetCol assigns column j = v.
func (m *Mat) SetCol(j int, v []float64) {
	if len(v) != m.R {
		panic("nn: SetCol length mismatch")
	}
	for i := 0; i < m.R; i++ {
		m.W[i*m.C+j] = v[i]
	}
}

// CopyColFrom assigns column dstCol = column srcCol of src.
func (m *Mat) CopyColFrom(dstCol int, src *Mat, srcCol int) {
	if src.R != m.R {
		panic(fmt.Sprintf("nn: CopyColFrom row mismatch %d vs %d", m.R, src.R))
	}
	if dstCol < 0 || dstCol >= m.C || srcCol < 0 || srcCol >= src.C {
		panic("nn: CopyColFrom column out of range")
	}
	for i := 0; i < m.R; i++ {
		m.W[i*m.C+dstCol] = src.W[i*src.C+srcCol]
	}
}

// SpreadColFrom assigns columns 0..n−1 = column srcCol of src and clears
// columns n..C−1, the pad columns of a matrix PadWidth(n) columns wide.
func (m *Mat) SpreadColFrom(src *Mat, srcCol, n int) {
	if src.R != m.R {
		panic(fmt.Sprintf("nn: SpreadColFrom row mismatch %d vs %d", m.R, src.R))
	}
	if n < 0 || n > m.C || srcCol < 0 || srcCol >= src.C {
		panic("nn: SpreadColFrom column out of range")
	}
	for i := 0; i < m.R; i++ {
		v := src.W[i*src.C+srcCol]
		row := m.W[i*m.C : (i+1)*m.C]
		for e := range row[:n] {
			row[e] = v
		}
		clear(row[n:])
	}
}

// AddCol accumulates column j += v.
func (m *Mat) AddCol(j int, v []float64) {
	if len(v) != m.R {
		panic("nn: AddCol length mismatch")
	}
	for i := 0; i < m.R; i++ {
		m.W[i*m.C+j] += v[i]
	}
}
