//go:build !amd64

package gp

// useLanes reports whether covRow hands groups of four entries to
// covLanes. There is no lane kernel on this architecture: every entry
// goes through math.Exp.
var useLanes = false

func covLanes(dst, r2 []float64, sig2, len2 float64) int {
	panic("gp: no covariance lanes on this architecture")
}
