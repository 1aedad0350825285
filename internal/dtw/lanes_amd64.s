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
