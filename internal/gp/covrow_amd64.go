package gp

import "math"

// useLanes reports whether covRow hands groups of four entries to
// covLanes. It needs AVX2 and FMA, with the YMM state enabled by the
// OS. math.Exp takes its FMA branch on any such CPU, and covLanes is
// that branch four lanes wide; a probe row confirms the two agree bit
// for bit (they would not if GODEBUG turned math's FMA use off).
var useLanes = detectLanes() && lanesMatchExp()

// covLanes fills dst with covRow's entries, four per iteration and the
// last one to three under a lane mask, up to the first group holding an
// argument −0.5·r²/len2 outside [−708, 0] or a NaN, and returns how
// many it wrote (covrow_amd64.s). len(dst) ≥ len(r2).
//
//go:noescape
func covLanes(dst, r2 []float64, sig2, len2 float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func detectLanes() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5      // CPUID.(7,0):EBX
		ymm     = 1<<1 | 1<<2 // XCR0: XMM and YMM state
	)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(fma|osxsave|avx) != fma|osxsave|avx || xgetbv()&ymm != ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// expProbes are values of r² whose exp(−r²/2) math.Exp rounds
// differently on its FMA and non-FMA branches.
var expProbes = [...]float64{
	math.Float64frombits(0x40382fb8aa527f0f), math.Float64frombits(0x40190b07572b7608),
	math.Float64frombits(0x404045d62b6f6c73), math.Float64frombits(0x4037cad70ce12290),
	math.Float64frombits(0x400d1163bca0dc84), math.Float64frombits(0x402d934f374fdcb5),
	math.Float64frombits(0x403e07d04e88febc), math.Float64frombits(0x4027853fd135c554),
}

// lanesMatchExp runs a probe row through covLanes and through math.Exp
// and reports whether every entry has the same bits. The probes are
// arguments whose exp rounds differently on math.Exp's two branches, so
// a math.Exp held off its FMA branch fails the check.
func lanesMatchExp() bool {
	var lanes, exp [len(expProbes)]float64
	if covLanes(lanes[:], expProbes[:], 1, 1) != len(expProbes) {
		return false
	}
	covExp(exp[:], expProbes[:], 1, 1)
	for i := range exp {
		if math.Float64bits(lanes[i]) != math.Float64bits(exp[i]) {
			return false
		}
	}
	return true
}
