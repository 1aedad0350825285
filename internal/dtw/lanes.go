package dtw

import (
	"fmt"
	"math"

	"smiler/internal/memsys"
)

// Lanes is the number of candidates DistanceLanes verifies in lock step.
const Lanes = 4

// LaneScratchLen returns the scratch length DistanceLanes needs for
// warping width rho: both live columns of every lane, and one scalar
// pair for the lane that finishes alone.
func LaneScratchLen(rho int) int { return (Lanes + 1) * CompressedScratchLen(rho) }

// GetLaneScratch is a DistanceLanes scratch backed by the memsys pool;
// return it with PutLaneScratch.
func GetLaneScratch(rho int) []float64 { return memsys.GetFloats(LaneScratchLen(rho)) }

// PutLaneScratch recycles a scratch from GetLaneScratch.
func PutLaneScratch(s []float64) { memsys.PutFloats(s) }

// DistanceLanes runs DistanceCompressedBounded on Lanes candidates of one
// query in lock step — one cutoff, and per candidate its own
// remaining-cost bound (a nil row is all zeros) — and returns, lane by
// lane, the distance and the processed-column count that
// DistanceCompressedBounded(q, c[l], rho, cutoff, rest[l], ·) returns, bit
// for bit, provided q and every c[l] are finite. A non-finite input can
// put NaN in a cell, where the lane kernel's minima and the scalar
// kernel's comparisons part ways; callers that cannot promise finite
// inputs run the scalar kernel. So do callers where LaneKernel is false:
// there DistanceLanes panics. scratch may be nil or hold
// LaneScratchLen(rho) words.
//
// The lanes' band cells are interleaved per band slot — cell k of lane l
// at k·Lanes+l of its column — so one column of every lane is one call of
// laneColumn, which also returns each lane's column minimum. The band
// bounds, the two +Inf pads and each lane's abandonment test stay here,
// as DistanceCompressedBounded has them. A lane that abandons at column j
// reports (+Inf, j) and its cells go on being filled, unread, as long as
// two other lanes run; the last lane standing is handed, with its column,
// to the scalar column loop and finishes there.
func DistanceLanes(q []float64, c [Lanes][]float64, rho int, cutoff float64, rest [Lanes][]float64, scratch []float64) (dist [Lanes]float64, cols [Lanes]int, err error) {
	d := len(q)
	for l := range c {
		if d == 0 || d != len(c[l]) {
			return dist, cols, fmt.Errorf("%w: |q|=%d |c%d|=%d", ErrLength, d, l, len(c[l]))
		}
		if rest[l] != nil && len(rest[l]) <= d {
			return dist, cols, fmt.Errorf("%w: remaining-cost bound %d for %d columns", ErrLength, len(rest[l]), d)
		}
	}
	if rho < 0 {
		return dist, cols, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	m := 2*rho + 2
	if len(scratch) < LaneScratchLen(rho) {
		scratch = make([]float64, LaneScratchLen(rho))
	}
	prev, cur := scratch[:Lanes*m], scratch[Lanes*m:2*Lanes*m]
	inf := math.Inf(1)
	// Column 0 and both pads, in every lane.
	for k := range prev {
		prev[k] = inf
	}
	for l := 0; l < Lanes; l++ {
		prev[rho*Lanes+l] = 0
		cur[(m-1)*Lanes+l] = inf
	}
	loose := Slack(cutoff)
	running, live := [Lanes]bool{true, true, true, true}, Lanes
	var cj, least [Lanes]float64
	j := 1
	for ; j <= d && live > 1; j++ {
		ilo, ihi := max(1, j-rho), min(d, j+rho)
		klo := ilo - j + rho
		if klo > 0 {
			pad := cur[(klo-1)*Lanes:][:Lanes]
			for l := range pad {
				pad[l] = inf
			}
		}
		for l := range cj {
			cj[l] = c[l][j-1]
		}
		n := (ihi - ilo + 1) * Lanes
		laneColumn(cur[klo*Lanes:][:n], prev[klo*Lanes:][:n], prev[(klo+1)*Lanes:][:n], q[ilo-1:ihi], &cj, &least)
		for l, v := range least {
			if running[l] && (v > cutoff || (rest[l] != nil && v+rest[l][j] > loose)) {
				running[l], live = false, live-1
				dist[l], cols[l] = inf, j
			}
		}
		prev, cur = cur, prev
	}
	for l, on := range running {
		switch {
		case !on:
		case live > 1: // every column done
			dist[l], cols[l] = prev[rho*Lanes+l], d
		default: // the last lane: columns 1..j−1 done
			sp, sc := scratch[2*Lanes*m:][:m], scratch[2*Lanes*m+m:][:m]
			for k := range sp {
				sp[k] = prev[k*Lanes+l]
			}
			sc[m-1] = inf
			dist[l], cols[l] = columns(q, c[l], rho, cutoff, rest[l], sp, sc, j)
		}
	}
	return dist, cols, nil
}
