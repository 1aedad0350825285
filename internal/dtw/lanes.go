package dtw

import (
	"fmt"
	"math"

	"smiler/internal/memsys"
)

// Lanes is the number of candidates DistanceLanes verifies in lock step.
const Lanes = 4

// LaneScratchLen returns the scratch length DistanceLanes needs for
// warping width rho: three lane columns — the live one and the two a
// pair of columns fills —, and one scalar pair for the lane that
// finishes alone.
func LaneScratchLen(rho int) int { return (3*Lanes + 2) * (2*rho + 2) }

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
// laneColumn, which also returns each lane's column minimum. A column
// whose band lies inside the matrix (ρ < j ≤ d−ρ) has no pad to write,
// and where column j+1 is such a column too, one call of laneColumn2
// fills both: column j+1 one band slot behind column j, so that four
// chains run where one column has two. The band bounds, the two +Inf
// pads and each lane's abandonment test stay here, as
// DistanceCompressedBounded has them, and column j+1 is tested only when
// column j left two lanes running. A lane that abandons at column j
// reports (+Inf, j) and its cells go on being filled, unread, as long as
// two other lanes run; the last lane standing is handed, with its last
// tested column, to the scalar column loop and finishes there.
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
	prev, cur, spare := scratch[:Lanes*m], scratch[Lanes*m:2*Lanes*m], scratch[2*Lanes*m:3*Lanes*m]
	inf := math.Inf(1)
	// Column 0 and the three pads, in every lane.
	for k := range prev {
		prev[k] = inf
	}
	for l := 0; l < Lanes; l++ {
		prev[rho*Lanes+l] = 0
		cur[(m-1)*Lanes+l] = inf
		spare[(m-1)*Lanes+l] = inf
	}
	loose := Slack(cutoff)
	running, live := [Lanes]bool{true, true, true, true}, Lanes
	// stop applies the scalar kernel's abandonment test to column j of
	// every running lane.
	stop := func(j int, least *[Lanes]float64) {
		for l, v := range least {
			if running[l] && (v > cutoff || (rest[l] != nil && v+rest[l][j] > loose)) {
				running[l], live = false, live-1
				dist[l], cols[l] = inf, j
			}
		}
	}
	var cj [2][Lanes]float64
	var least [2][Lanes]float64
	full := (2*rho + 1) * Lanes // a full band column's cells
	j := 1
	for j <= d && live > 1 {
		if rho < j && j+1+rho <= d { // columns j and j+1, both full bands
			for l := range cj[0] {
				cj[0][l], cj[1][l] = c[l][j-1], c[l][j]
			}
			laneColumn2(cur[:full], spare[:full], prev, q[j-rho-1:j+rho+1], &cj, &least)
			if stop(j, &least[0]); live <= 1 {
				prev, cur = cur, prev
				j++
				break
			}
			stop(j+1, &least[1])
			prev, cur, spare = spare, prev, cur
			j += 2
			continue
		}
		ilo, ihi := max(1, j-rho), min(d, j+rho)
		klo := ilo - j + rho
		if klo > 0 {
			pad := cur[(klo-1)*Lanes:][:Lanes]
			for l := range pad {
				pad[l] = inf
			}
		}
		for l := range cj[0] {
			cj[0][l] = c[l][j-1]
		}
		n := (ihi - ilo + 1) * Lanes
		laneColumn(cur[klo*Lanes:][:n], prev[klo*Lanes:][:n], prev[(klo+1)*Lanes:][:n], q[ilo-1:ihi], &cj[0], &least[0])
		stop(j, &least[0])
		prev, cur = cur, prev
		j++
	}
	for l, on := range running {
		switch {
		case !on:
		case live > 1: // every column done
			dist[l], cols[l] = prev[rho*Lanes+l], d
		default: // the last lane: columns 1..j−1 done
			sp, sc := scratch[3*Lanes*m:][:m], scratch[3*Lanes*m+m:][:m]
			for k := range sp {
				sp[k] = prev[k*Lanes+l]
			}
			sc[m-1] = inf
			dist[l], cols[l] = columns(q, c[l], rho, cutoff, rest[l], sp, sc, j)
		}
	}
	return dist, cols, nil
}

// LBKeoghSuffixLanes runs LBKeoghSuffix(e, x[l], rest[l], bar) on Lanes
// candidates of one length against one envelope and returns, lane by
// lane, what it returns — lb bit for bit, from, and rest[l][from:] —
// provided the envelope and every x[l] are finite. Where LaneKernel is
// false it panics. lbLanes writes the suffix sums of all four lanes right
// to left until every one exceeds bar, so a lane may get sums further
// left than the scalar loop writes; each lane's (lb, from) is then read
// back from its own row, which only grows leftwards: from is the
// rightmost point whose sum exceeds bar (0 if none does), and lb its sum.
func LBKeoghSuffixLanes(e Envelope, x, rest [Lanes][]float64, bar float64) (lb [Lanes]float64, from [Lanes]int) {
	n := len(x[0])
	for l := range x {
		if len(x[l]) != n {
			panic(fmt.Sprintf("dtw: LBKeoghSuffixLanes candidates of lengths %d and %d", n, len(x[l])))
		}
		rest[l] = rest[l][:n+1]
		rest[l][n] = 0
	}
	if n == 0 {
		return lb, from
	}
	stop := lbLanes(e.Upper[:n], e.Lower[:n], &x, &rest, bar)
	for l, row := range rest {
		lo, hi := stop, n // the first point in [stop, n) not past bar
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); row[mid] > bar {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		from[l] = max(lo-1, 0)
		lb[l] = row[from[l]]
	}
	return lb, from
}
