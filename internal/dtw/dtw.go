// Package dtw implements Dynamic Time Warping under the Sakoe-Chiba
// band constraint together with the lower-bound machinery SMiLer's
// index is built on: time series envelopes (paper Definition B.1),
// LB_Keogh, the query/data envelope bounds LBEQ and LBEC, and the
// enhanced lower bound LBen = max(LBEQ, LBEC) (Theorem 4.1).
//
// Conventions: all distances accumulate the squared pointwise
// difference dist(a,b) = (a-b)², matching the paper's use of LB_Keogh
// [41]; DTW(Q,C) therefore returns a squared-cost sum (monotone in the
// usual rooted cost, so kNN order is unchanged). Both inputs to DTW
// must have the same length d (the paper assumes equal-length
// comparisons, citing [57]).
package dtw

import (
	"errors"
	"fmt"
	"math"

	"smiler/internal/memsys"
)

// ErrLength is returned when operand lengths are incompatible.
var ErrLength = errors.New("dtw: length mismatch")

// dist is the pointwise cost. The conversion rounds the square before any
// caller adds to it: the Go spec lets a compiler fuse x*y + z into one
// FMA, which would round once where the lane kernel (MULPD, then ADDPD)
// rounds twice.
func dist(a, b float64) float64 {
	d := a - b
	return float64(d * d)
}

// Distance computes the DTW distance between equal-length series q and
// c under a Sakoe-Chiba band of half-width rho, using a full (d+1)²
// dynamic-programming matrix. It is the readable reference
// implementation; DistanceCompressedBounded is the memory-compressed
// kernel, and DistanceLanes runs it on four candidates in lock step.
func Distance(q, c []float64, rho int) (float64, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if rho < 0 {
		return 0, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	inf := math.Inf(1)
	n := d + 1
	// The full DP matrix is the one large transient of the reference
	// path; it lives exactly one call, so pool it.
	g := memsys.GetFloats(n * n)
	defer memsys.PutFloats(g)
	for i := range g {
		g[i] = inf
	}
	g[0] = 0
	for i := 1; i <= d; i++ {
		jlo, jhi := i-rho, i+rho
		if jlo < 1 {
			jlo = 1
		}
		if jhi > d {
			jhi = d
		}
		for j := jlo; j <= jhi; j++ {
			best := g[(i-1)*n+j]
			if v := g[i*n+j-1]; v < best {
				best = v
			}
			if v := g[(i-1)*n+j-1]; v < best {
				best = v
			}
			g[i*n+j] = dist(q[i-1], c[j-1]) + best
		}
	}
	return g[d*n+d], nil
}

// DistanceCompressed computes the same banded DTW distance with the
// paper's compressed warping matrix (Algorithm 2): a rolling buffer of
// 2 columns × (2ρ+2) words, sized to fit a GPU block's shared memory.
// It is DistanceCompressedAbandon without a cutoff. scratch may be nil
// or a buffer from NewCompressedScratch to avoid per-call allocation.
func DistanceCompressed(q, c []float64, rho int, scratch []float64) (float64, error) {
	v, _, err := DistanceCompressedAbandon(q, c, rho, math.Inf(1), scratch)
	return v, err
}

// DistanceCompressedAbandon is DistanceCompressedBounded without a
// remaining-cost bound: every warping path visits every column of the
// warping matrix and path costs only grow along a path, so once the
// minimum over a column's band cells exceeds cutoff no path can finish
// at or below it. The function then abandons, reporting (+Inf, cols,
// nil) with cols the number of columns actually processed — callers
// charge cost models for work done, not work skipped. Abandonment
// fires only on a strictly greater column minimum, so candidates whose
// true distance equals the cutoff are fully computed; cutoff = +Inf
// never abandons.
func DistanceCompressedAbandon(q, c []float64, rho int, cutoff float64, scratch []float64) (float64, int, error) {
	return DistanceCompressedBounded(q, c, rho, cutoff, nil, scratch)
}

// boundSlack is the relative margin by which a lower bound must exceed
// a cutoff before it may dismiss a candidate (see Slack). A banded-DTW
// distance and a lower bound on it are both sums of at most 2d squared
// differences, accumulated in different orders; each carries a relative
// rounding error below 2d·2⁻⁵³, so a bound that is mathematically equal
// to the distance — the band collapsed to the diagonal, a flat query —
// can come out a few ulps above it. 1e-9 covers that for any d below
// 10⁶ and gives away no pruning that could be measured.
const boundSlack = 1e-9

// Slack returns the value a lower bound of a banded-DTW distance has to
// exceed to prove that the distance itself exceeds cutoff: the cutoff
// widened by the rounding margin between two differently ordered sums.
func Slack(cutoff float64) float64 { return cutoff + cutoff*boundSlack }

// DistanceCompressedBounded is the banded-DTW kernel. Beside the cutoff
// it takes an optional lower bound on what the columns still to come
// must cost: rest[j], j = 1..d, bounds from below the cost any warping
// path accumulates in columns j+1..d (rest[d] = 0; LBKeoghSuffix
// produces it from the query envelope). Columns are positions of c, so
// that cost is disjoint from the cost a path has accumulated up to
// column j, and the kernel abandons at column j as soon as
//
//	colMin > cutoff   or   colMin + rest[j] > Slack(cutoff),
//
// reporting (+Inf, j, nil) — the second test stops a candidate columns
// before its column minimum alone would. Either way a pair is abandoned
// only when its full distance exceeds cutoff, and a pair that is not
// abandoned gets the same bits with any rest. A nil rest is all zeros.
//
// The two live columns are addressed by band offset: cell γ(i,j) sits
// at k = i−j+ρ ∈ [0, 2ρ] of its column, followed by one +Inf pad word.
// Its three predecessors are then γ(i−1,j) — the cell just written,
// kept in a local —, γ(i,j−1) at k+1 and γ(i−1,j−1) at k of the previous
// column, so a column is one pass over three equal-length slices with no
// index arithmetic. The pad is what γ(j+ρ, j−1), one row past the
// previous column's band, reads as.
func DistanceCompressedBounded(q, c []float64, rho int, cutoff float64, rest, scratch []float64) (float64, int, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if rho < 0 {
		return 0, 0, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	if rest != nil && len(rest) <= d {
		return 0, 0, fmt.Errorf("%w: remaining-cost bound %d for %d columns", ErrLength, len(rest), d)
	}
	m := 2*rho + 2
	if len(scratch) < 2*m {
		scratch = make([]float64, 2*m)
	}
	prev, cur := scratch[:m], scratch[m:2*m]
	inf := math.Inf(1)
	// Column 0: γ(0,0) = 0, γ(i,0) = ∞ for i > 0 — and both pads.
	for k := range prev {
		prev[k] = inf
	}
	prev[rho] = 0
	cur[m-1] = inf
	dist, cols := columns(q, c, rho, cutoff, rest, prev, cur, 1)
	return dist, cols, nil
}

// columns is the kernel's column loop from column `from` on, with the
// inputs DistanceCompressedBounded has checked: prev holds column
// from−1 — its band cells and the +Inf pad after them —, cur (also 2ρ+2
// long) holds +Inf in its pad, and the result is the kernel's. It is the
// one copy of the loop: DistanceCompressedBounded starts it at column 1
// and DistanceLanes resumes its last running lane in it.
func columns(q, c []float64, rho int, cutoff float64, rest, prev, cur []float64, from int) (float64, int) {
	d := len(q)
	inf := math.Inf(1)
	loose := Slack(cutoff)
	for j := from; j <= d; j++ {
		ilo, ihi := max(1, j-rho), min(d, j+rho)
		klo := ilo - j + rho
		if klo > 0 {
			// Row 0 is inside the band until column ρ, and γ(0,j) = ∞ for
			// every j ≥ 1: the next column reads it as its first diagonal.
			cur[klo-1] = inf
		}
		// One slice per operand, all of the column's length, so the loop
		// below carries no bounds checks.
		qs := q[ilo-1 : ihi]
		out := cur[klo:][:len(qs)]
		diag := prev[klo:][:len(qs)]
		left := prev[klo+1:][:len(qs)]
		cj := c[j-1]
		// A cell is a sum of squares — never negative, never −0 — and for
		// such values, +Inf included, IEEE-754 bit patterns order like the
		// values while every NaN pattern sorts above +Inf. An unsigned
		// minimum over the bits is therefore the float minimum that skips
		// NaN, which is what `v < best` does with a NaN v, and it compiles
		// to a conditional move where the float comparison is a branch the
		// predictor keeps losing. The left/diagonal minimum and the column
		// minimum are taken that way. The comparison with the in-column
		// predecessor stays a float `<`: a NaN there must stick (nothing is
		// less than it), and it sits on the loop-carried dependency chain,
		// where a predicted branch is free and a conditional move is not.
		up, colMin := inf, math.Float64bits(inf)
		for k, qv := range qs {
			side := min(math.Float64bits(left[k]), math.Float64bits(diag[k]))
			best := up
			if v := math.Float64frombits(side); v < best {
				best = v
			}
			up = dist(qv, cj) + best
			out[k] = up
			colMin = min(colMin, math.Float64bits(up))
		}
		least := math.Float64frombits(colMin)
		if least > cutoff || (rest != nil && least+rest[j] > loose) {
			return inf, j
		}
		prev, cur = cur, prev
	}
	return prev[rho], d
}

// CompressedScratchLen returns the scratch length DistanceCompressed
// needs for warping width rho.
func CompressedScratchLen(rho int) int { return 2 * (2*rho + 2) }

// NewCompressedScratch allocates a reusable scratch buffer for
// DistanceCompressed.
func NewCompressedScratch(rho int) []float64 {
	return make([]float64, CompressedScratchLen(rho))
}

// GetCompressedScratch is NewCompressedScratch backed by the memsys
// pool; return it with PutCompressedScratch when the verification
// batch is done.
func GetCompressedScratch(rho int) []float64 {
	return memsys.GetFloats(CompressedScratchLen(rho))
}

// PutCompressedScratch recycles a scratch from GetCompressedScratch.
func PutCompressedScratch(s []float64) { memsys.PutFloats(s) }

// DistanceEarlyAbandon computes banded DTW but abandons and reports
// (∞, false) as soon as every cell in the current anti-diagonal band
// column exceeds threshold — the classic UCR-suite pruning used by the
// FastCPUScan baseline.
func DistanceEarlyAbandon(q, c []float64, rho int, threshold float64) (float64, bool, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, false, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	inf := math.Inf(1)
	rows := memsys.GetFloats(2 * (d + 1))
	defer memsys.PutFloats(rows)
	prev, cur := rows[:d+1], rows[d+1:]
	for i := range prev {
		prev[i] = inf
	}
	prev[0] = 0
	for i := 1; i <= d; i++ {
		for j := range cur {
			cur[j] = inf
		}
		jlo, jhi := i-rho, i+rho
		if jlo < 1 {
			jlo = 1
		}
		if jhi > d {
			jhi = d
		}
		rowMin := inf
		for j := jlo; j <= jhi; j++ {
			best := prev[j]
			if v := cur[j-1]; v < best {
				best = v
			}
			if v := prev[j-1]; v < best {
				best = v
			}
			cur[j] = dist(q[i-1], c[j-1]) + best
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > threshold {
			return inf, false, nil
		}
		prev, cur = cur, prev
	}
	return prev[d], true, nil
}

// Envelope holds the running upper and lower envelopes of a series
// under warping width rho (Definition B.1): U_i = max c_{i±ρ},
// L_i = min c_{i±ρ}, with indices clamped at the boundaries.
type Envelope struct {
	Upper, Lower []float64
}

// NewEnvelope computes the envelope of values with warping width rho
// into freshly allocated rows (see EnvelopeInto).
func NewEnvelope(values []float64, rho int) Envelope {
	e := Envelope{Upper: make([]float64, len(values)), Lower: make([]float64, len(values))}
	EnvelopeInto(values, rho, e.Upper, e.Lower)
	return e
}

// EnvelopeInto writes the envelope of values with warping width rho into
// upper and lower (each at least len(values) long) by direct scan.
// O(n·ρ); fine for the short windows SMiLer indexes.
func EnvelopeInto(values []float64, rho int, upper, lower []float64) {
	n := len(values)
	for i := 0; i < n; i++ {
		lo, hi := i-rho, i+rho
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		mx, mn := values[lo], values[lo]
		for j := lo + 1; j <= hi; j++ {
			if values[j] > mx {
				mx = values[j]
			}
			if values[j] < mn {
				mn = values[j]
			}
		}
		upper[i] = mx
		lower[i] = mn
	}
}

// Len returns the envelope length.
func (e Envelope) Len() int { return len(e.Upper) }

// LBKeogh returns LB_keogh(E, x): the squared deviation of each x_i
// outside the envelope band [L_i, U_i] (Eqn. 26). The envelope and x
// must have equal length.
func LBKeogh(e Envelope, x []float64) (float64, error) {
	if e.Len() != len(x) {
		return 0, fmt.Errorf("%w: envelope %d vs series %d", ErrLength, e.Len(), len(x))
	}
	var s float64
	for i, v := range x {
		if v > e.Upper[i] {
			s += dist(v, e.Upper[i])
		} else if v < e.Lower[i] {
			s += dist(v, e.Lower[i])
		}
	}
	return s, nil
}

// LBKeoghSuffix is LBKeogh that keeps its partial sums: accumulating
// right to left it writes rest[j] = Σ_{i≥j} of x_i's squared deviation
// outside [L_i, U_i], j = 0..len(x), so rest[0] is LB_keogh(E, x) and
// rest[len(x)] is 0. With E the query's envelope and x a candidate,
// rest[j] bounds from below what any warping path pays in the candidate's
// columns after the j-th: the form DistanceCompressedBounded takes. It
// stops as soon as the running sum exceeds bar — the bound already
// dismisses the candidate — and returns that sum with the index it
// reached: rest[from:] is what it wrote, len(x)−from points what it read.
// rest must hold len(x)+1 values, the envelope len(x).
func LBKeoghSuffix(e Envelope, x, rest []float64, bar float64) (lb float64, from int) {
	upper, lower := e.Upper[:len(x)], e.Lower[:len(x)]
	rest = rest[:len(x)+1]
	rest[len(x)] = 0
	for i := len(x) - 1; i >= 0; i-- {
		if v := x[i]; v > upper[i] {
			lb += dist(v, upper[i])
		} else if v < lower[i] {
			lb += dist(v, lower[i])
		}
		rest[i] = lb
		if lb > bar {
			return lb, i
		}
	}
	return lb, 0
}

// LBKim returns the O(1) first/last-point lower bound of banded DTW
// [Kim et al., as used by the UCR suite]: every warping path aligns
// q₀ with c₀ and q_{n−1} with c_{n−1}, so those two squared
// differences always contribute. It is the cheapest stage of the
// FastCPUScan pruning cascade.
func LBKim(q, c []float64) (float64, error) {
	n := len(q)
	if n == 0 || n != len(c) {
		return 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if n == 1 {
		return dist(q[0], c[0]), nil
	}
	return dist(q[0], c[0]) + dist(q[n-1], c[n-1]), nil
}

// LBEQ computes LB_keogh(E(Q), C): the query-envelope bound.
func LBEQ(q, c []float64, rho int) (float64, error) {
	return LBKeogh(NewEnvelope(q, rho), c)
}

// LBEC computes LB_keogh(E(C), Q): the data-envelope bound.
func LBEC(q, c []float64, rho int) (float64, error) {
	return LBKeogh(NewEnvelope(c, rho), q)
}

// LBEn computes the paper's enhanced lower bound
// LBen(Q,C) = max(LBEQ(Q,C), LBEC(Q,C)) (Theorem 4.1).
func LBEn(q, c []float64, rho int) (float64, error) {
	a, err := LBEQ(q, c, rho)
	if err != nil {
		return 0, err
	}
	b, err := LBEC(q, c, rho)
	if err != nil {
		return 0, err
	}
	return math.Max(a, b), nil
}
