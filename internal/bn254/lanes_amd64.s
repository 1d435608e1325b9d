//go:build amd64 && !purego

#include "textflag.h"

// Eight BN254 Fp elements per operation on AVX-512 IFMA (see lanes.go).
// An operand is a laneElem: five 64-byte rows, row i holding limb i of
// all eight lanes, each limb below 2^52. A lane's value is kept in
// [0, 2p); c points to a laneConsts: p and 2p in 52-bit limbs at 0 and
// 40, −p⁻¹ mod 2^52 at 80.

// NORM carries limb a into limb b: b += a >> 52 (logical), a &= 2^52 − 1
// (in Z31); t is scratch.
#define NORM(a, b, t) \
	VPSRLQ $52, a, t; \
	VPANDQ Z31, a, a; \
	VPADDQ t, b, b

// SNORM is NORM with an arithmetic shift, for limbs that may be negative.
#define SNORM(a, b, t) \
	VPSRAQ $52, a, t; \
	VPANDQ Z31, a, a; \
	VPADDQ t, b, b

// MASK52 sets Z31 to 2^52 − 1 in every lane.
#define MASK52 \
	MOVQ $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z31

// ROUND is one step of the word-serial Montgomery product: it adds
// a·y (y in Z5–Z9) into the accumulators t0–t5, adds m·p (p in
// Z10–Z14) for m = t0·(−p⁻¹) mod 2^52 (−p⁻¹ in Z15), which clears t0's
// low 52 bits, and carries t0 into t1. The next step then accumulates
// into t1–t6: the shift by 2^52 is a renaming of registers.
#define ROUND(a, t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ Z5, a, t0; \
	VPMADD52LUQ Z6, a, t1; \
	VPMADD52LUQ Z7, a, t2; \
	VPMADD52LUQ Z8, a, t3; \
	VPMADD52LUQ Z9, a, t4; \
	VPMADD52HUQ Z5, a, t1; \
	VPMADD52HUQ Z6, a, t2; \
	VPMADD52HUQ Z7, a, t3; \
	VPMADD52HUQ Z8, a, t4; \
	VPMADD52HUQ Z9, a, t5; \
	VPXORQ Z27, Z27, Z27; \
	VPMADD52LUQ Z15, t0, Z27; \
	VPMADD52LUQ Z10, Z27, t0; \
	VPMADD52LUQ Z11, Z27, t1; \
	VPMADD52LUQ Z12, Z27, t2; \
	VPMADD52LUQ Z13, Z27, t3; \
	VPMADD52LUQ Z14, Z27, t4; \
	VPMADD52HUQ Z10, Z27, t1; \
	VPMADD52HUQ Z11, Z27, t2; \
	VPMADD52HUQ Z12, Z27, t3; \
	VPMADD52HUQ Z13, Z27, t4; \
	VPMADD52HUQ Z14, Z27, t5; \
	VPSRLQ $52, t0, t0; \
	VPADDQ t0, t1, t1

// func vmul(z, x, y *laneElem, c *laneConsts)
//
// z = x·y·2^−260 mod p in every lane. For x, y < 2p the product is below
// 4p² < p·2^260, so the result is below 2p without a final subtraction.
TEXT ·vmul(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ c+24(FP), CX
	MASK52
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VMOVDQU64 0(DX), Z5
	VMOVDQU64 64(DX), Z6
	VMOVDQU64 128(DX), Z7
	VMOVDQU64 192(DX), Z8
	VMOVDQU64 256(DX), Z9
	VPBROADCASTQ 0(CX), Z10
	VPBROADCASTQ 8(CX), Z11
	VPBROADCASTQ 16(CX), Z12
	VPBROADCASTQ 24(CX), Z13
	VPBROADCASTQ 32(CX), Z14
	VPBROADCASTQ 80(CX), Z15

	// Accumulators t0–t9 in Z17–Z26.
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26

	ROUND(Z0, Z17, Z18, Z19, Z20, Z21, Z22)
	ROUND(Z1, Z18, Z19, Z20, Z21, Z22, Z23)
	ROUND(Z2, Z19, Z20, Z21, Z22, Z23, Z24)
	ROUND(Z3, Z20, Z21, Z22, Z23, Z24, Z25)
	ROUND(Z4, Z21, Z22, Z23, Z24, Z25, Z26)

	// The result is t5–t9; bring every limb below 2^52.
	NORM(Z22, Z23, Z28)
	NORM(Z23, Z24, Z28)
	NORM(Z24, Z25, Z28)
	NORM(Z25, Z26, Z28)
	VMOVDQU64 Z22, 0(DI)
	VMOVDQU64 Z23, 64(DI)
	VMOVDQU64 Z24, 128(DI)
	VMOVDQU64 Z25, 192(DI)
	VMOVDQU64 Z26, 256(DI)
	VZEROUPPER
	RET

// func vadd(z, x, y *laneElem, c *laneConsts)
//
// z = x + y, less 2p when the sum reaches 2p. The sum s and d = s − 2p
// are carried in parallel, and the sign of d's top limb picks the lane's
// result.
TEXT ·vadd(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ c+24(FP), CX
	MASK52
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VPADDQ 0(DX), Z0, Z0
	VPADDQ 64(DX), Z1, Z1
	VPADDQ 128(DX), Z2, Z2
	VPADDQ 192(DX), Z3, Z3
	VPADDQ 256(DX), Z4, Z4
	VPBROADCASTQ 40(CX), Z10
	VPBROADCASTQ 48(CX), Z11
	VPBROADCASTQ 56(CX), Z12
	VPBROADCASTQ 64(CX), Z13
	VPBROADCASTQ 72(CX), Z14
	VPSUBQ Z10, Z0, Z5
	VPSUBQ Z11, Z1, Z6
	VPSUBQ Z12, Z2, Z7
	VPSUBQ Z13, Z3, Z8
	VPSUBQ Z14, Z4, Z9
	NORM(Z0, Z1, Z28)
	SNORM(Z5, Z6, Z29)
	NORM(Z1, Z2, Z28)
	SNORM(Z6, Z7, Z29)
	NORM(Z2, Z3, Z28)
	SNORM(Z7, Z8, Z29)
	NORM(Z3, Z4, Z28)
	SNORM(Z8, Z9, Z29)
	VPMOVQ2M Z9, K1
	VPBLENDMQ Z0, Z5, K1, Z5
	VPBLENDMQ Z1, Z6, K1, Z6
	VPBLENDMQ Z2, Z7, K1, Z7
	VPBLENDMQ Z3, Z8, K1, Z8
	VPBLENDMQ Z4, Z9, K1, Z9
	VMOVDQU64 Z5, 0(DI)
	VMOVDQU64 Z6, 64(DI)
	VMOVDQU64 Z7, 128(DI)
	VMOVDQU64 Z8, 192(DI)
	VMOVDQU64 Z9, 256(DI)
	VZEROUPPER
	RET

// func vsub(z, x, y *laneElem, c *laneConsts)
//
// z = x − y, plus 2p when the difference is negative: d = x − y and
// e = d + 2p are carried in parallel, and the sign of d's top limb picks
// the lane's result.
TEXT ·vsub(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ c+24(FP), CX
	MASK52
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VPSUBQ 0(DX), Z0, Z0
	VPSUBQ 64(DX), Z1, Z1
	VPSUBQ 128(DX), Z2, Z2
	VPSUBQ 192(DX), Z3, Z3
	VPSUBQ 256(DX), Z4, Z4
	VPBROADCASTQ 40(CX), Z10
	VPBROADCASTQ 48(CX), Z11
	VPBROADCASTQ 56(CX), Z12
	VPBROADCASTQ 64(CX), Z13
	VPBROADCASTQ 72(CX), Z14
	VPADDQ Z10, Z0, Z5
	VPADDQ Z11, Z1, Z6
	VPADDQ Z12, Z2, Z7
	VPADDQ Z13, Z3, Z8
	VPADDQ Z14, Z4, Z9
	SNORM(Z0, Z1, Z28)
	SNORM(Z5, Z6, Z29)
	SNORM(Z1, Z2, Z28)
	SNORM(Z6, Z7, Z29)
	SNORM(Z2, Z3, Z28)
	SNORM(Z7, Z8, Z29)
	SNORM(Z3, Z4, Z28)
	SNORM(Z8, Z9, Z29)
	VPMOVQ2M Z4, K1
	VPBLENDMQ Z5, Z0, K1, Z0
	VPBLENDMQ Z6, Z1, K1, Z1
	VPBLENDMQ Z7, Z2, K1, Z2
	VPBLENDMQ Z8, Z3, K1, Z3
	VPBLENDMQ Z9, Z4, K1, Z4
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
