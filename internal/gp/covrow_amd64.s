#include "textflag.h"

// The constants of math.Exp's amd64 kernel (math/exp_amd64.s), spelled
// the same so the assembler rounds them to the same bits, each repeated
// across the four lanes of a YMM register.
#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

#define LANES(off, v) \
	DATA lanec<>+(off)(SB)/8, v; \
	DATA lanec<>+(off+8)(SB)/8, v; \
	DATA lanec<>+(off+16)(SB)/8, v; \
	DATA lanec<>+(off+24)(SB)/8, v

LANES(0, $-0.5)
LANES(32, $-708.0)
LANES(64, $LOG2E)
LANES(96, $LN2U)
LANES(128, $LN2L)
LANES(160, $0.0625)
LANES(192, $2.4801587301587301587e-5)
LANES(224, $1.9841269841269841270e-4)
LANES(256, $1.3888888888888888889e-3)
LANES(288, $8.3333333333333333333e-3)
LANES(320, $4.1666666666666666667e-2)
LANES(352, $1.6666666666666666667e-1)
LANES(384, $0.5)
LANES(416, $1.0)
LANES(448, $2.0)
DATA lanec<>+480(SB)/4, $0x3FF
DATA lanec<>+484(SB)/4, $0x3FF
DATA lanec<>+488(SB)/4, $0x3FF
DATA lanec<>+492(SB)/4, $0x3FF
GLOBL lanec<>(SB), RODATA|NOPTR, $496

// Lane masks for a tail of t = 1, 2 or 3 entries at offset 32·t: the
// sign bit set in the t lanes VMASKMOVPD loads and stores.
DATA lanemask<>+32(SB)/8, $-1
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
DATA lanemask<>+64(SB)/8, $-1
DATA lanemask<>+72(SB)/8, $-1
DATA lanemask<>+80(SB)/8, $0
DATA lanemask<>+88(SB)/8, $0
DATA lanemask<>+96(SB)/8, $-1
DATA lanemask<>+104(SB)/8, $-1
DATA lanemask<>+112(SB)/8, $-1
DATA lanemask<>+120(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $128

// ARG turns the r² in Y0 into x = −0.5·r²/len2, as Hyper.Cov computes
// it, and jumps to done unless −708 ≤ x ≤ 0 in every lane (the two
// ordered compares GE_OQ and LE_OQ, which NaN fails).
#define ARG \
	VMULPD Y0, Y13, Y0; \
	VDIVPD Y14, Y0, Y0; \
	VCMPPD $0x1D, Y12, Y0, Y1; \
	VCMPPD $0x12, Y11, Y0, Y2; \
	VANDPD Y2, Y1, Y1; \
	VMOVMSKPD Y1, BX; \
	CMPQ BX, $15; \
	JNE done

// COVEXP replaces x in Y0 with sig2·exp(x): math.Exp's FMA branch for
// x in [−708, 0], op for op. n = round(x·LOG2E); x −= n·LN2U;
// x −= n·LN2L; x ×= 1/16; the Taylor series; four squarings of (1+y),
// y ← y·(y+2); then × 2ⁿ, where n+0x3FF lies in [2, 1023]; then × sig2.
#define COVEXP \
	VMULPD lanec<>+64(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD lanec<>+96(SB), Y1, Y0; \
	VFNMADD231PD lanec<>+128(SB), Y1, Y0; \
	VMULPD lanec<>+160(SB), Y0, Y0; \
	VMOVUPD lanec<>+192(SB), Y1; \
	VFMADD213PD lanec<>+224(SB), Y0, Y1; \
	VFMADD213PD lanec<>+256(SB), Y0, Y1; \
	VFMADD213PD lanec<>+288(SB), Y0, Y1; \
	VFMADD213PD lanec<>+320(SB), Y0, Y1; \
	VFMADD213PD lanec<>+352(SB), Y0, Y1; \
	VFMADD213PD lanec<>+384(SB), Y0, Y1; \
	VFMADD213PD lanec<>+416(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD lanec<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD lanec<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD lanec<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD lanec<>+448(SB), Y0, Y1; \
	VFMADD213PD lanec<>+416(SB), Y1, Y0; \
	VPADDD lanec<>+480(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0; \
	VMULPD Y15, Y0, Y0

// func covLanes(dst, r2 []float64, sig2, len2 float64) int
//
// covRow's entries, four per iteration: x = −0.5·r²/len2, then exp(x)
// by the useFMA branch of math/exp_amd64.s — the same IEEE operations
// on the same operands, each scalar SD instruction become its PD form —
// then × sig2. That branch is what math.Exp runs on any CPU with FMA.
// The kernel takes only x in [−708, 0], where math.Exp reaches that
// branch and its exponent needs neither the overflow nor the denormal
// step. A last group of one to three entries is loaded and stored under
// a lane mask; its idle lanes hold r² = 0. The kernel returns at the
// first group with any other x (or a NaN), leaving it unwritten, and
// returns the entries written. len(dst) ≥ len(r2).
TEXT ·covLanes(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ r2_base+24(FP), SI
	MOVQ r2_len+32(FP), DX
	MOVQ DX, CX
	ANDQ $~3, CX // end of the whole groups
	VBROADCASTSD sig2+48(FP), Y15
	VBROADCASTSD len2+56(FP), Y14
	VMOVUPD lanec<>+0(SB), Y13  // −0.5
	VMOVUPD lanec<>+32(SB), Y12 // −708
	VXORPD Y11, Y11, Y11        // +0
	XORQ AX, AX
	CMPQ AX, CX
	JGE tail

loop:
	VMOVUPD (SI)(AX*8), Y0
	ARG
	COVEXP
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT loop

tail:
	MOVQ DX, R8
	SUBQ AX, R8 // 0 to 3 entries left
	JZ done
	SHLQ $5, R8
	LEAQ lanemask<>(SB), R9
	VMOVUPD (R9)(R8*1), Y9
	VMASKMOVPD (SI)(AX*8), Y9, Y0
	ARG
	COVEXP
	VMASKMOVPD Y0, Y9, (DI)(AX*8)
	MOVQ DX, AX

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
