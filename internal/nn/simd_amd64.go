//go:build amd64

package nn

// AVX fast path for the batched matrix kernels (simd_amd64.s). The vector
// lanes compute independent per-element accumulation chains with separate
// multiply and add (no FMA contraction), so results are bit-identical to the
// pure-Go kernels — verified by the SIMD-vs-pure-Go tests, the fallback
// differential tests and the kernel fuzz targets.
//
// The tile kernels compute a block of output rows per call:
//
//	dst[r·dstride + 0..w) (+)= Σ_k a[r·arow + k·astride] · x[k·xstride + 0..w)
//
// for r < 4 with w = 8 (dotTile4x8, accumTile4x8) or w = 4 (dotTile4x4), and
// for r < 8 with w = 4 (dotTile8x4, for matrices four columns wide). One
// load of x feeds every row of the tile, and each tile but the 4×4 keeps
// eight independent vector chains in flight. Row-major M·X passes arow = M's
// row length and astride = 1; Mᵀ·Y passes arow = 1 and astride = M's row
// length. The one-row block kernels cover the rows left over when a
// matrix's row count is not a multiple of four.
//
// Detection follows the standard protocol: OSXSAVE + AVX in CPUID.1:ECX, YMM
// state enabled in XCR0.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func dotBlock8(a *float64, astride int, x *float64, xstride int, n int, dst *float64)

//go:noescape
func dotBlock4(a *float64, astride int, x *float64, xstride int, n int, dst *float64)

//go:noescape
func dotTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)

//go:noescape
func dotTile4x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)

//go:noescape
func dotTile8x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)

//go:noescape
func accumTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)

var simdEnabled = detectAVX()

func detectAVX() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving (XCR0 bits 1 and 2).
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6
}
