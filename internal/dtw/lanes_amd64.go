package dtw

// LaneKernel reports whether DistanceLanes runs on a vector kernel on
// this architecture. SSE2 is part of the amd64 baseline, so there is no
// feature to detect. The lanes round the square and the sum apart, as
// the scalar kernel does because dist converts its square (no FMA under
// any GOAMD64 level).
const LaneKernel = true

// laneColumn fills one warping-matrix column of every lane and stores
// each lane's column minimum in least (lanes_amd64.s). out, diag and left
// hold len(qs)·Lanes cells, and qs is not empty.
//
//go:noescape
func laneColumn(out, diag, left, qs []float64, cj, least *[Lanes]float64)
