//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go register-blocked kernels; the stubs exist
// so the kernel drivers compile unconditionally and are unreachable while
// simdEnabled is false.

var simdEnabled = false

func dotBlock8(a *float64, astride int, x *float64, xstride int, n int, dst *float64) {
	panic("nn: SIMD kernel called without support")
}

func dotBlock4(a *float64, astride int, x *float64, xstride int, n int, dst *float64) {
	panic("nn: SIMD kernel called without support")
}

func dotTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int) {
	panic("nn: SIMD kernel called without support")
}

func dotTile4x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int) {
	panic("nn: SIMD kernel called without support")
}

func dotTile8x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int) {
	panic("nn: SIMD kernel called without support")
}

func accumTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int) {
	panic("nn: SIMD kernel called without support")
}
