//go:build !amd64

package dtw

// LaneKernel reports whether DistanceLanes runs on a vector kernel on
// this architecture. It does not here: callers keep to the scalar
// kernel, and DistanceLanes must not be called.
const LaneKernel = false

func laneColumn(out, diag, left, qs []float64, cj, least *[Lanes]float64) {
	panic("dtw: no lane kernel on this architecture")
}
