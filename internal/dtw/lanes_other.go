//go:build !amd64

package dtw

// LaneKernel reports whether DistanceLanes runs on a vector kernel on
// this architecture. It does not here: callers keep to the scalar
// kernel, and neither DistanceLanes nor LBKeoghSuffixLanes may be called.
const LaneKernel = false

func laneColumn(out, diag, left, qs []float64, cj, least *[Lanes]float64) {
	panic("dtw: no lane kernel on this architecture")
}

func laneColumn2(outA, outB, prev, qs []float64, cj, least *[2][Lanes]float64) {
	panic("dtw: no lane kernel on this architecture")
}

func lbLanes(upper, lower []float64, x, rest *[Lanes][]float64, bar float64) int {
	panic("dtw: no lane kernel on this architecture")
}
