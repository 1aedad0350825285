package gp

import "math"

// covRow sets dst[j] = sig2·exp(−0.5·r2[j]/len2) for every j: one row of
// the squared-exponential covariance, with sig2 = θ₀² and len2 = θ₁²,
// the same expression Hyper.Cov evaluates. Where the CPU has AVX2 and
// FMA (useLanes), the row goes through covLanes, an assembly copy of
// math.Exp's FMA path that runs four arguments per instruction and
// returns the same bits. It handles arguments in [−708, 0] only, where
// math.Exp takes no special case; a group of four with an argument
// outside that range or a NaN, and every entry on a CPU without the
// lanes, go through math.Exp itself.
func covRow(dst, r2 []float64, sig2, len2 float64) {
	dst = dst[:len(r2)]
	i := 0
	for useLanes && i < len(r2) {
		i += covLanes(dst[i:], r2[i:], sig2, len2)
		if i < len(r2) { // covLanes stopped at a group it does not handle
			end := min(i+4, len(r2))
			covExp(dst[i:end], r2[i:end], sig2, len2)
			i = end
		}
	}
	covExp(dst[i:], r2[i:], sig2, len2)
}

// covExp is covRow through math.Exp, one entry at a time.
func covExp(dst, r2 []float64, sig2, len2 float64) {
	for j, v := range r2 {
		dst[j] = sig2 * math.Exp(-0.5*v/len2)
	}
}
