package nn

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets for the nn.Mat kernels. The invariants under fuzz are the
// bit-identity contracts the batched controller path is built on:
//
//   - MulMatInto / MulTMatInto agree bit-for-bit with MulVec / MulTVec on
//     every column, whatever the shapes and values;
//   - Transpose is a bit-exact involution, and MulTVec equals
//     Transpose().MulVec for finite inputs;
//   - AccumBPTTGrads' AVX tiles agree bit-for-bit with its pure-Go per-row
//     kernel, from the same nonzero gradients.
//
// CI runs each target briefly (see the fuzz smoke step); the f.Add seed
// corpus doubles as a regression table under plain `go test`.

// fuzzFloats decodes the fuzz byte string into n finite float64s, cycling
// and clamping so every input produces a usable matrix.
func fuzzFloats(data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		off := (i * 8) % len(data)
		var buf [8]byte
		for j := 0; j < 8; j++ {
			buf[j] = data[(off+j)%len(data)]
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(i%7) - 3
		}
		// Clamp magnitudes so products stay finite (overflow to +Inf would
		// make the comparisons vacuous, not wrong).
		if v > 1e150 || v < -1e150 {
			v = math.Mod(v, 1e6)
		}
		out[i] = v
	}
	return out
}

func fuzzDims(r, c, b uint8) (int, int, int) {
	return int(r%24) + 1, int(c%24) + 1, int(b%17) + 1
}

func FuzzMulMatColumnsMatchMulVec(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(16), uint8(16), uint8(8), []byte{0xff, 0x00, 0x80, 0x7f, 0x3f})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, rr, cc, bb uint8, data []byte) {
		r, c, b := fuzzDims(rr, cc, bb)
		vals := fuzzFloats(data, r*c+c*b+r*b)
		m := &Mat{R: r, C: c, W: vals[:r*c]}
		x := &Mat{R: c, C: b, W: vals[r*c : r*c+c*b]}
		y := &Mat{R: r, C: b, W: vals[r*c+c*b:]} // dirty destination: must be fully overwritten
		m.MulMatInto(y, x)
		for e := 0; e < b; e++ {
			want := m.MulVec(x.Col(e))
			got := y.Col(e)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("MulMat col %d row %d: %x vs MulVec %x (shapes %dx%d·%dx%d)",
						e, i, math.Float64bits(got[i]), math.Float64bits(want[i]), r, c, c, b)
				}
			}
		}
	})
}

func FuzzMulTMatColumnsMatchMulTVec(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(5), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(12), uint8(7), uint8(3), []byte{0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, rr, cc, bb uint8, data []byte) {
		r, c, b := fuzzDims(rr, cc, bb)
		vals := fuzzFloats(data, r*c+r*b+c*b)
		m := &Mat{R: r, C: c, W: vals[:r*c]}
		y := &Mat{R: r, C: b, W: vals[r*c : r*c+r*b]}
		// Zero out a stride of y to exercise the skip path.
		for i := 0; i < len(y.W); i += 4 {
			y.W[i] = 0
		}
		x := &Mat{R: c, C: b, W: vals[r*c+r*b:]} // dirty destination
		m.MulTMatInto(x, y)
		for e := 0; e < b; e++ {
			want := m.MulTVec(y.Col(e))
			got := x.Col(e)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("MulTMat col %d elem %d: %x vs MulTVec %x (shapes %dx%dᵀ·%dx%d)",
						e, j, math.Float64bits(got[j]), math.Float64bits(want[j]), r, c, r, b)
				}
			}
		}
	})
}

func FuzzTransposeRoundTripAndMulTVec(f *testing.F) {
	f.Add(uint8(4), uint8(6), []byte{1, 2, 3})
	f.Add(uint8(1), uint8(9), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, rr, cc uint8, data []byte) {
		r, c, _ := fuzzDims(rr, cc, 1)
		vals := fuzzFloats(data, r*c+r)
		m := &Mat{R: r, C: c, W: vals[:r*c]}
		back := m.Transpose().Transpose()
		for i := range m.W {
			if math.Float64bits(back.W[i]) != math.Float64bits(m.W[i]) {
				t.Fatalf("transpose round trip changed element %d: %x vs %x",
					i, math.Float64bits(back.W[i]), math.Float64bits(m.W[i]))
			}
		}
		// Mᵀ·y via MulTVec must match Transpose().MulVec(y): same i-ascending
		// accumulation order. Compared with ==, not bit patterns: MulTVec
		// skips zero y rows, so the two can legitimately disagree on the
		// sign of a zero result.
		y := vals[r*c:]
		a := m.MulTVec(y)
		b := m.Transpose().MulVec(y)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("MulTVec[%d] %.17g vs transpose MulVec %.17g", j, a[j], b[j])
			}
		}
	})
}

func FuzzAccumBPTTGradsSIMDMatchesPureGo(f *testing.F) {
	f.Add(uint8(48), uint8(48), uint8(11), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(13), uint8(5), uint8(4), uint8(2), []byte{0xff, 0x00, 0x80, 0x7f, 0x3f})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, ii, hh, bb, tt uint8, data []byte) {
		if !simdEnabled {
			t.Skip("no SIMD support on this machine")
		}
		in, hidden, B := int(ii%49)+1, int(hh%49)+1, int(bb%17)+1
		T := int(tt%6) + 1
		accumBPTTSIMDvsGo(t, in, hidden, B, T, fuzzFloats(data, 257))
	})
}
