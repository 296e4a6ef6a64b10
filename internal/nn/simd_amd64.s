// AVX kernels for the batched matrix path. Each 256-bit lane runs one output
// element's accumulation chain: VMULPD then VADDPD round exactly like the
// scalar mul-then-add in the pure-Go kernels (no FMA contraction), so the
// asm path is bit-identical per element — the property the batched
// controller's differential tests pin down.
//
// The tile kernels compute four (or, 8×4, eight) output rows per call. The
// rows share every load of x, and their eight accumulators (four in the 4×4
// tile) are independent chains, so the VADDPD latency of one chain hides
// behind the others; the one-row block kernels keep one or two chains and
// wait on it. They remain for the rows left over when a matrix's row count
// is not a multiple of four.

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotBlock8(a *float64, astride int, x *float64, xstride int, n int, dst *float64)
//
// dst[0:8] = Σ_{k<n} a[k*astride] · x[k*xstride : k*xstride+8]
//
// Strides are in elements. Every lane is an independent single-accumulator
// chain over k ascending, mirroring the scalar kernels.
TEXT ·dotBlock8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ astride+8(FP), R8
	MOVQ x+16(FP), DI
	MOVQ xstride+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ dst+40(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ CX, CX
	JZ   dot8done

dot8loop:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VMULPD  Y3, Y2, Y3
	VMULPD  Y4, Y2, Y4
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y1, Y1
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  dot8loop

dot8done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func dotBlock4(a *float64, astride int, x *float64, xstride int, n int, dst *float64)
//
// dst[0:4] = Σ_{k<n} a[k*astride] · x[k*xstride : k*xstride+4]
TEXT ·dotBlock4(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ astride+8(FP), R8
	MOVQ x+16(FP), DI
	MOVQ xstride+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ dst+40(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	VXORPD Y0, Y0, Y0
	TESTQ CX, CX
	JZ   dot4done

dot4loop:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y3, Y2, Y3
	VADDPD  Y3, Y0, Y0
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  dot4loop

dot4done:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// The tile kernels' loop bodies. Register use:
//   SI = a, R8 = arow bytes, R10 = 3·arow bytes, R9 = astride bytes,
//   DI = x, R11 = xstride bytes, CX = n,
//   DX = dst, R12 = dstride bytes, R13 = 3·dstride bytes,
//   Y0..Y7 = accumulators, row r in Y(2r) (and Y(2r+1) for columns 4..7).

// TILE_ROW8 adds row r's product a[r·arow]·x[0..8) (x in Y8, Y9) into acc0,
// acc1.
#define TILE_ROW8(aaddr, bc, acc0, acc1) \
	VBROADCASTSD aaddr, bc; \
	VMULPD       Y8, bc, Y14; \
	VMULPD       Y9, bc, Y15; \
	VADDPD       Y14, acc0, acc0; \
	VADDPD       Y15, acc1, acc1

// TILE_ROW4 adds row r's product a[r·arow]·x[0..4) (x in Y8) into acc.
#define TILE_ROW4(aaddr, bc, acc) \
	VBROADCASTSD aaddr, bc; \
	VMULPD       Y8, bc, Y14; \
	VADDPD       Y14, acc, acc

#define TILE_LOOP8(label) \
label: \
	VMOVUPD (DI), Y8; \
	VMOVUPD 32(DI), Y9; \
	TILE_ROW8((SI), Y10, Y0, Y1); \
	TILE_ROW8((SI)(R8*1), Y11, Y2, Y3); \
	TILE_ROW8((SI)(R8*2), Y12, Y4, Y5); \
	TILE_ROW8((SI)(R10*1), Y13, Y6, Y7); \
	ADDQ R9, SI; \
	ADDQ R11, DI; \
	DECQ CX; \
	JNZ  label

#define TILE_LOAD8 \
	VMOVUPD (DX), Y0; \
	VMOVUPD 32(DX), Y1; \
	VMOVUPD (DX)(R12*1), Y2; \
	VMOVUPD 32(DX)(R12*1), Y3; \
	VMOVUPD (DX)(R12*2), Y4; \
	VMOVUPD 32(DX)(R12*2), Y5; \
	VMOVUPD (DX)(R13*1), Y6; \
	VMOVUPD 32(DX)(R13*1), Y7

#define TILE_STORE8 \
	VMOVUPD Y0, (DX); \
	VMOVUPD Y1, 32(DX); \
	VMOVUPD Y2, (DX)(R12*1); \
	VMOVUPD Y3, 32(DX)(R12*1); \
	VMOVUPD Y4, (DX)(R12*2); \
	VMOVUPD Y5, 32(DX)(R12*2); \
	VMOVUPD Y6, (DX)(R13*1); \
	VMOVUPD Y7, 32(DX)(R13*1)

// The byte strides, and the third row's offsets.
#define TILE_STRIDES \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	SHLQ $3, R11; \
	SHLQ $3, R12; \
	LEAQ (R8)(R8*2), R10; \
	LEAQ (R12)(R12*2), R13

// func dotTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)
//
// dst[r*dstride : r*dstride+8] = Σ_{k<n} a[r*arow + k*astride] · x[k*xstride : k*xstride+8]
// for r = 0..3. Strides are in elements. Every element is an independent
// single-accumulator chain over k ascending, mirroring the scalar kernels.
TEXT ·dotTile4x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ arow+8(FP), R8
	MOVQ astride+16(FP), R9
	MOVQ x+24(FP), DI
	MOVQ xstride+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), DX
	MOVQ dstride+56(FP), R12
	TILE_STRIDES
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   dt48done
	TILE_LOOP8(dt48loop)

dt48done:
	TILE_STORE8
	VZEROUPPER
	RET

// func accumTile4x8(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)
//
// dst[r*dstride : r*dstride+8] += Σ_{k<n} a[r*arow + k*astride] · x[k*xstride : k*xstride+8]
// for r = 0..3, with the existing dst values as the heads of the
// accumulation chains (the replayed gradient-add order).
TEXT ·accumTile4x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ arow+8(FP), R8
	MOVQ astride+16(FP), R9
	MOVQ x+24(FP), DI
	MOVQ xstride+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), DX
	MOVQ dstride+56(FP), R12
	TILE_STRIDES
	TILE_LOAD8
	TESTQ CX, CX
	JZ   at48done
	TILE_LOOP8(at48loop)

at48done:
	TILE_STORE8
	VZEROUPPER
	RET

// func dotTile4x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)
//
// dst[r*dstride : r*dstride+4] = Σ_{k<n} a[r*arow + k*astride] · x[k*xstride : k*xstride+4]
// for r = 0..3.
TEXT ·dotTile4x4(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ arow+8(FP), R8
	MOVQ astride+16(FP), R9
	MOVQ x+24(FP), DI
	MOVQ xstride+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), DX
	MOVQ dstride+56(FP), R12
	TILE_STRIDES
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	TESTQ CX, CX
	JZ   dt44done

dt44loop:
	VMOVUPD (DI), Y8
	TILE_ROW4((SI), Y10, Y0)
	TILE_ROW4((SI)(R8*1), Y11, Y2)
	TILE_ROW4((SI)(R8*2), Y12, Y4)
	TILE_ROW4((SI)(R10*1), Y13, Y6)
	ADDQ R9, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  dt44loop

dt44done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y2, (DX)(R12*1)
	VMOVUPD Y4, (DX)(R12*2)
	VMOVUPD Y6, (DX)(R13*1)
	VZEROUPPER
	RET

// func dotTile8x4(a *float64, arow, astride int, x *float64, xstride, n int, dst *float64, dstride int)
//
// dst[r*dstride : r*dstride+4] = Σ_{k<n} a[r*arow + k*astride] · x[k*xstride : k*xstride+4]
// for r = 0..7. Rows 4..7 are addressed from BX = a + 4·arow and
// AX = dst + 4·dstride.
TEXT ·dotTile8x4(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ arow+8(FP), R8
	MOVQ astride+16(FP), R9
	MOVQ x+24(FP), DI
	MOVQ xstride+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), DX
	MOVQ dstride+56(FP), R12
	TILE_STRIDES
	LEAQ (SI)(R8*4), BX
	LEAQ (DX)(R12*4), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   dt84done

dt84loop:
	VMOVUPD (DI), Y8
	TILE_ROW4((SI), Y10, Y0)
	TILE_ROW4((SI)(R8*1), Y11, Y1)
	TILE_ROW4((SI)(R8*2), Y12, Y2)
	TILE_ROW4((SI)(R10*1), Y13, Y3)
	TILE_ROW4((BX), Y10, Y4)
	TILE_ROW4((BX)(R8*1), Y11, Y5)
	TILE_ROW4((BX)(R8*2), Y12, Y6)
	TILE_ROW4((BX)(R10*1), Y13, Y7)
	ADDQ R9, SI
	ADDQ R9, BX
	ADDQ R11, DI
	DECQ CX
	JNZ  dt84loop

dt84done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R12*1)
	VMOVUPD Y2, (DX)(R12*2)
	VMOVUPD Y3, (DX)(R13*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R12*1)
	VMOVUPD Y6, (AX)(R12*2)
	VMOVUPD Y7, (AX)(R13*1)
	VZEROUPPER
	RET
