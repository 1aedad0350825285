package dtw

// LaneKernel reports whether DistanceLanes and LBKeoghSuffixLanes run on
// a vector kernel on this architecture. SSE2 is part of the amd64
// baseline, so there is no feature to detect. The lanes round the square
// and the sum apart, as the scalar kernels do because dist converts its
// square (no FMA under any GOAMD64 level).
const LaneKernel = true

// laneColumn fills one warping-matrix column of every lane and stores
// each lane's column minimum in least (lanes_amd64.s). out, diag and left
// hold len(qs)·Lanes cells, and qs is not empty.
//
//go:noescape
func laneColumn(out, diag, left, qs []float64, cj, least *[Lanes]float64)

// laneColumn2 fills two full-band columns, j into outA and j+1 into
// outB, of every lane from column j−1 in prev, and stores each lane's
// two column minima in least (lanes_amd64.s). outA and outB hold
// (2ρ+1)·Lanes cells, prev (2ρ+2)·Lanes — its band cells and its pad —,
// and qs the 2ρ+2 query rows j−ρ..j+ρ+1.
//
//go:noescape
func laneColumn2(outA, outB, prev, qs []float64, cj, least *[2][Lanes]float64)

// lbLanes writes the LB_Keogh suffix sums of four candidates into their
// rest rows, right to left, until all four exceed bar, and returns the
// index it stopped at — 0 if they never did (lanes_amd64.s). Every
// candidate and row holds at least len(upper) points, lower as many,
// and len(upper) is not 0.
//
//go:noescape
func lbLanes(upper, lower []float64, x, rest *[Lanes][]float64, bar float64) int
