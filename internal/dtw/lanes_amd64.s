#include "textflag.h"

// func laneColumn(out, diag, left, qs []float64, cj, least *[Lanes]float64)
//
// One warping-matrix column for four candidates at once (see
// DistanceLanes). Band slot k of out, diag and left holds the four
// lanes' cells, 32 bytes; qs holds the column's query rows, one per
// slot. Lanes 0-1 run in X0 and lanes 2-3 in X1, two independent chains
// down the slots:
//
//	up    = min(up, min(left, diag))    MINPD, MINPD
//	up   += (q − cj)²                   SUBPD, MULPD, ADDPD
//	least = min(least, up)              MINPD
//
// On finite inputs every cell is a sum of squares — never NaN, never
// −0 — so MINPD selects what the scalar kernel's comparisons select,
// and each arithmetic step is the scalar kernel's IEEE operation on the
// same operands. qs must not be empty.
TEXT ·laneColumn(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ diag_base+24(FP), SI
	MOVQ left_base+48(FP), DX
	MOVQ qs_base+72(FP), BX
	MOVQ qs_len+80(FP), CX
	MOVQ cj+96(FP), AX
	MOVUPD 0(AX), X2
	MOVUPD 16(AX), X3

	// +Inf in every lane of up (X0, X1) and least (X4, X5).
	MOVQ $0x7FF0000000000000, R8
	MOVQ R8, X0
	UNPCKLPD X0, X0
	MOVAPD X0, X1
	MOVAPD X0, X4
	MOVAPD X0, X5

loop:
	MOVSD (BX), X8
	UNPCKLPD X8, X8

	MOVUPD 0(DX), X6
	MOVUPD 0(SI), X7
	MINPD X7, X6
	MINPD X6, X0
	MOVAPD X8, X9
	SUBPD X2, X9
	MULPD X9, X9
	ADDPD X9, X0
	MOVUPD X0, 0(DI)
	MINPD X0, X4

	MOVUPD 16(DX), X10
	MOVUPD 16(SI), X11
	MINPD X11, X10
	MINPD X10, X1
	MOVAPD X8, X12
	SUBPD X3, X12
	MULPD X12, X12
	ADDPD X12, X1
	MOVUPD X1, 16(DI)
	MINPD X1, X5

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $8, BX
	DECQ CX
	JNZ loop

	MOVQ least+104(FP), AX
	MOVUPD X4, 0(AX)
	MOVUPD X5, 16(AX)
	RET

// func laneColumn2(outA, outB, prev, qs []float64, cj, least *[2][Lanes]float64)
//
// Two full-band warping-matrix columns, j into outA and j+1 into outB,
// for four candidates at once (see DistanceLanes). prev holds column
// j−1: 2ρ+1 band slots and the +Inf pad slot after them. Cell k of
// column j+1 reads cells k and k+1 of column j, the two cells column j
// wrote last, so column j+1 runs one band slot behind column j: step s
// fills cell s of column j and cell s−1 of column j+1, and both are
// cells of query row j−ρ+s, qs[s]. The up chains of both columns, two
// lanes to a register, are four independent chains in flight:
//
//	upA  = min(upA, min(prev[s+1], prev[s])) + (q − cj)²     X0, X1
//	upB  = min(upB, min(upA, upA before)) + (q − cj+1)²      X2, X3
//
// with each column's running minimum beside it (X4, X5 and X6, X7).
// Step 0 fills column j's cell 0 only, and the last step column j+1's
// cell 2ρ only, whose left neighbour is column j's pad: min(+Inf, upA)
// is upA. The arithmetic per cell is laneColumn's. len(qs) is 2ρ+2.
TEXT ·laneColumn2(SB), NOSPLIT, $0-112
	MOVQ outA_base+0(FP), DI
	MOVQ outB_base+24(FP), R8
	MOVQ prev_base+48(FP), SI
	MOVQ qs_base+72(FP), BX
	MOVQ qs_len+80(FP), CX
	SUBQ $2, CX
	MOVQ cj+96(FP), AX
	MOVUPD 0(AX), X8
	MOVUPD 16(AX), X9
	MOVUPD 32(AX), X10
	MOVUPD 48(AX), X11

	MOVQ $0x7FF0000000000000, R9
	MOVQ R9, X0
	UNPCKLPD X0, X0
	MOVAPD X0, X1
	MOVAPD X0, X2
	MOVAPD X0, X3
	MOVAPD X0, X4
	MOVAPD X0, X5
	MOVAPD X0, X6
	MOVAPD X0, X7

	// Step 0: cell 0 of column j.
	MOVSD (BX), X12
	UNPCKLPD X12, X12
	MOVUPD 32(SI), X13
	MOVUPD 0(SI), X14
	MINPD X14, X13
	MINPD X13, X0
	MOVAPD X12, X13
	SUBPD X8, X13
	MULPD X13, X13
	ADDPD X13, X0
	MOVUPD X0, 0(DI)
	MINPD X0, X4

	MOVUPD 48(SI), X13
	MOVUPD 16(SI), X14
	MINPD X14, X13
	MINPD X13, X1
	MOVAPD X12, X13
	SUBPD X9, X13
	MULPD X13, X13
	ADDPD X13, X1
	MOVUPD X1, 16(DI)
	MINPD X1, X5

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $8, BX
	TESTQ CX, CX
	JZ tail

loop:
	MOVSD (BX), X12
	UNPCKLPD X12, X12

	// Lanes 0-1: cell s of column j, then cell s−1 of column j+1.
	MOVUPD 32(SI), X13
	MOVUPD 0(SI), X14
	MINPD X14, X13
	MOVAPD X0, X14
	MINPD X13, X0
	MOVAPD X12, X13
	SUBPD X8, X13
	MULPD X13, X13
	ADDPD X13, X0
	MOVUPD X0, 0(DI)
	MINPD X0, X4
	MINPD X0, X14
	MINPD X14, X2
	MOVAPD X12, X13
	SUBPD X10, X13
	MULPD X13, X13
	ADDPD X13, X2
	MOVUPD X2, 0(R8)
	MINPD X2, X6

	// Lanes 2-3.
	MOVUPD 48(SI), X13
	MOVUPD 16(SI), X14
	MINPD X14, X13
	MOVAPD X1, X14
	MINPD X13, X1
	MOVAPD X12, X13
	SUBPD X9, X13
	MULPD X13, X13
	ADDPD X13, X1
	MOVUPD X1, 16(DI)
	MINPD X1, X5
	MINPD X1, X14
	MINPD X14, X3
	MOVAPD X12, X13
	SUBPD X11, X13
	MULPD X13, X13
	ADDPD X13, X3
	MOVUPD X3, 16(R8)
	MINPD X3, X7

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $8, BX
	DECQ CX
	JNZ loop

tail:
	// Cell 2ρ of column j+1: its diagonal is column j's cell 2ρ, its left
	// neighbour the pad.
	MOVSD (BX), X12
	UNPCKLPD X12, X12
	MINPD X0, X2
	MOVAPD X12, X13
	SUBPD X10, X13
	MULPD X13, X13
	ADDPD X13, X2
	MOVUPD X2, 0(R8)
	MINPD X2, X6

	MINPD X1, X3
	MOVAPD X12, X13
	SUBPD X11, X13
	MULPD X13, X13
	ADDPD X13, X3
	MOVUPD X3, 16(R8)
	MINPD X3, X7

	MOVQ least+104(FP), AX
	MOVUPD X4, 0(AX)
	MOVUPD X5, 16(AX)
	MOVUPD X6, 32(AX)
	MOVUPD X7, 48(AX)
	RET

// func lbLanes(upper, lower []float64, x, rest *[Lanes][]float64, bar float64) int
//
// LBKeoghSuffix for four candidates at once (see LBKeoghSuffixLanes):
// right to left over the points of x[0..3], lanes 0-1 in X0 and 2-3 in
// X1, two independent running sums:
//
//	c    = max(L, min(v, U))    MINPD, MAXPD
//	sum += (v − c)²             SUBPD, MULPD, ADDPD
//	rest[l][i] = sum
//
// On finite inputs with L ≤ U, c is v itself when v lies inside
// [L, U] — v − c is +0 and the sum gains an exact +0 — and U or L when
// it lies above or below, so each lane's sums are the scalar loop's
// bits. It returns the index at which the smallest of the four sums
// first exceeds bar — all four are then past it — or 0. Every slice
// holds at least len(upper) points, rest[l] its suffix sums; len(upper)
// must not be 0.
TEXT ·lbLanes(SB), NOSPLIT, $0-80
	MOVQ upper_base+0(FP), SI
	MOVQ upper_len+8(FP), CX
	MOVQ lower_base+24(FP), DI
	MOVQ x+48(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ rest+56(FP), AX
	MOVQ 0(AX), R12
	MOVQ 24(AX), R13
	MOVQ 48(AX), DX
	MOVQ 72(AX), BX
	MOVSD bar+64(FP), X2
	UNPCKLPD X2, X2
	XORPD X0, X0
	XORPD X1, X1

lbloop:
	DECQ CX
	MOVSD (SI)(CX*8), X3
	UNPCKLPD X3, X3
	MOVSD (DI)(CX*8), X4
	UNPCKLPD X4, X4

	MOVSD (R8)(CX*8), X5
	MOVHPD (R9)(CX*8), X5
	MOVAPD X5, X7
	MINPD X3, X7
	MAXPD X4, X7
	SUBPD X7, X5
	MULPD X5, X5
	ADDPD X5, X0

	MOVSD (R10)(CX*8), X6
	MOVHPD (R11)(CX*8), X6
	MOVAPD X6, X8
	MINPD X3, X8
	MAXPD X4, X8
	SUBPD X8, X6
	MULPD X6, X6
	ADDPD X6, X1

	MOVSD X0, (R12)(CX*8)
	MOVHPD X0, (R13)(CX*8)
	MOVSD X1, (DX)(CX*8)
	MOVHPD X1, (BX)(CX*8)

	// All four past bar: bar < min(sums) in both halves.
	MOVAPD X0, X7
	MINPD X1, X7
	MOVAPD X2, X8
	CMPPD X7, X8, $1
	MOVMSKPD X8, AX
	CMPQ AX, $3
	JEQ lbdone
	TESTQ CX, CX
	JNZ lbloop

lbdone:
	MOVQ CX, ret+72(FP)
	RET
