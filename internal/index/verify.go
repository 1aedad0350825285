package index

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/memsys"
)

// verifyChunk is the number of candidate positions one verification
// block processes (two-phase filter/verify per Section 4.4 keeps the
// block's lanes homogeneous).
const verifyChunk = 256

// maxRoundChunks caps one staged round at this many verify chunks per
// item query. Staged rounds grow geometrically (one chunk, two, four,
// ...) up to the cap: early rounds are fine-grained so a tight deadline
// still completes a few, and the cap bounds deadline overshoot to one
// round of in-flight chunks.
const maxRoundChunks = 8

// horizonFilter is one horizon's slice of an item query's filter:
// candidates at positions ≤ maxT (the horizon's label-validity mask)
// survive when their lower bound is ≤ tau.
type horizonFilter struct {
	maxT int
	tau  float64
}

// verifyTask describes one item query's share of the verification:
// which candidates survive the filter, the early-abandon cutoff, and
// the output distances (+Inf for filtered, abandoned or unverified
// candidates).
type verifyTask struct {
	d       int
	query   []float64
	lbs     []float64
	filters []horizonFilter // a candidate survives when any entry keeps it
	cutoff  float64         // early-abandon cutoff (+Inf disables)
	// seeds are the threshold candidates with their exact distances.
	seeds []seedCand
	// k is the selection size the quality tracker compares against; 0
	// marks an ε-range task, which compares against the fixed radius eps
	// instead of a running k-th distance.
	k   int
	eps float64

	dists []float64 // out: exact DTW or +Inf (pooled; search releases it)

	order    []int // unseeded survivors, (lower bound, position) ascending
	next     int   // order[:next] is verified
	top      topK  // running k best verified distances
	verified int   // candidates with exact distances (seeds included)
	flips    int   // verified at-risk candidates that entered the set
	atRisk   int   // verified candidates that could have entered
}

// keep reports whether candidate position pos must be verified.
func (t *verifyTask) keep(pos int) bool {
	lb := t.lbs[pos]
	for _, f := range t.filters {
		if pos <= f.maxT && lb <= f.tau {
			return true
		}
	}
	return false
}

// topK tracks the running k smallest verified distances (ascending).
// It only backs the quality estimate; the returned neighbours come from
// the block k-selection.
type topK struct {
	k int
	d []float64
}

// add inserts a finite distance, reporting whether it entered the set
// (displaced the current k-th or grew the set below k).
func (t *topK) add(v float64) bool {
	if t.k <= 0 || math.IsInf(v, 1) || math.IsNaN(v) {
		return false
	}
	if len(t.d) == t.k && v >= t.d[t.k-1] {
		return false
	}
	i := sort.SearchFloat64s(t.d, v)
	if len(t.d) < t.k {
		t.d = append(t.d, 0)
	}
	copy(t.d[i+1:], t.d[i:])
	t.d[i] = v
	return true
}

// kth returns the current k-th smallest distance, +Inf until k
// candidates have been found.
func (t *topK) kth() float64 {
	if len(t.d) < t.k {
		return math.Inf(1)
	}
	return t.d[t.k-1]
}

// filter is the first of the two phases (Section 4.4): one pass over
// the item query's candidate positions that prefills the threshold
// seeds — each has dist ≤ τ, so the τ-cutoff verification would compute
// the identical value and skipping its slot changes nothing — and
// collects the remaining survivors in (lower bound, position) order, a
// strict total order that keeps rounds deterministic.
func (t *verifyTask) filter(blk *gpusim.Block) {
	n := len(t.lbs)
	blk.GlobalAccess(n) // every candidate's lower bound streams through the filter
	t.dists = memsys.GetFloats(n)
	for i := range t.dists {
		t.dists[i] = math.Inf(1)
	}
	t.top = topK{k: t.k, d: make([]float64, 0, t.k)}
	for _, s := range t.seeds {
		if !t.keep(s.t) || !math.IsInf(t.dists[s.t], 1) {
			continue
		}
		t.dists[s.t] = s.dist
		t.verified++
		t.top.add(s.dist)
	}
	survives := func(pos int) bool { return t.keep(pos) && math.IsInf(t.dists[pos], 1) }
	count := 0
	for pos := 0; pos < n; pos++ {
		if survives(pos) {
			count++
		}
	}
	t.order = make([]int, 0, count)
	for pos := 0; pos < n; pos++ {
		if survives(pos) {
			t.order = append(t.order, pos)
		}
	}
	slices.SortFunc(t.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(t.lbs[a], t.lbs[b]), a-b)
	})
}

// verify is the one DTW verifier behind every search. The filter kernel
// (one block per item query) prefills the seeds and orders the
// survivors cheapest lower bound first; the survivors are then verified
// in rounds, one fused launch per round — each grid block verifies one
// verifyChunk of one task's survivors, charging the cost model for the
// columns its candidates actually processed — and the context is
// checked between rounds. When it has expired the loop stops: each task
// keeps its best-so-far distances and foldQuality reports how close to
// exact they are. Device or DTW errors still abort.
//
// The round schedule follows from what the context can say. Without a
// deadline nothing can interrupt verification, so a single round covers
// every survivor and the search pays one verify launch. With a deadline
// the rounds grow geometrically from one chunk per item query, so a
// tight budget still completes a few and overshoot stays bounded. The
// schedule never changes which candidates are verified or with what
// cutoff, so a search that runs to completion returns bit-identical
// distances — and neighbours — under any schedule.
func (ix *Index) verify(ctx context.Context, tasks []*verifyTask) error {
	if len(tasks) == 0 {
		ix.foldQuality(tasks)
		return nil
	}
	wallStart := time.Now()
	defer func() { ix.stats.VerifyWallSeconds += time.Since(wallStart).Seconds() }()
	before := ix.dev.SimSeconds()
	defer func() { ix.stats.VerifySimSeconds += ix.dev.SimSeconds() - before }()

	if err := ix.dev.Launch(len(tasks), func(blk *gpusim.Block) error {
		tasks[blk.ID].filter(blk)
		return nil
	}); err != nil {
		return err
	}

	roundSize := verifyChunk
	if _, staged := ctx.Deadline(); !staged {
		for _, t := range tasks {
			roundSize = max(roundSize, len(t.order))
		}
	}
	rho := ix.p.Rho
	type chunkRef struct {
		t      *verifyTask
		lo, hi int // range within t.order
	}
	var refs []chunkRef
	for {
		refs = refs[:0]
		for _, t := range tasks {
			hi := min(t.next+roundSize, len(t.order))
			for lo := t.next; lo < hi; lo += verifyChunk {
				refs = append(refs, chunkRef{t, lo, min(lo+verifyChunk, hi)})
			}
		}
		if len(refs) == 0 {
			break // every task fully verified
		}
		ix.stats.Rounds++
		roundStart := time.Now()
		err := ix.dev.Launch(len(refs), func(blk *gpusim.Block) error {
			ref := refs[blk.ID]
			t := ref.t
			d := t.d
			if err := blk.AllocShared(8 * d); err != nil { // query resident
				return err
			}
			if err := blk.AllocShared(8 * dtw.CompressedScratchLen(rho)); err != nil {
				return err
			}
			scratch := dtw.GetCompressedScratch(rho)
			defer dtw.PutCompressedScratch(scratch)
			totalCols, maxCols := 0, 0
			for _, pos := range t.order[ref.lo:ref.hi] {
				dist, cols, err := dtw.DistanceCompressedAbandon(t.query, ix.c[pos:pos+d], rho, t.cutoff, scratch)
				if err != nil {
					return err
				}
				t.dists[pos] = dist
				totalCols += cols
				maxCols = max(maxCols, cols)
			}
			// Honest abandon accounting: candidates stream only the columns
			// that were processed, and each lane fills cols·(2ρ+1) band
			// cells in lock-step waves bounded by the longest lane.
			blk.GlobalAccess(totalCols)
			blk.ParallelCompute(ref.hi-ref.lo, maxCols*(2*rho+1)*6)
			return nil
		})
		ix.stats.RoundWallSeconds = append(ix.stats.RoundWallSeconds, time.Since(roundStart).Seconds())
		if err != nil {
			return err
		}
		// Deterministic host-side accounting, in cost order: the flip
		// bookkeeping behind the ProS-style estimate.
		for _, t := range tasks {
			hi := min(t.next+roundSize, len(t.order))
			for _, pos := range t.order[t.next:hi] {
				dist := t.dists[pos]
				if t.k == 0 {
					t.atRisk++
					if dist <= t.eps {
						t.flips++
					}
				} else if kth := t.top.kth(); t.lbs[pos] < kth || math.IsInf(kth, 1) {
					t.atRisk++
					if t.top.add(dist) {
						t.flips++
					}
				}
			}
			t.verified += hi - t.next
			t.next = hi
		}
		if ctx.Err() != nil {
			break // deadline: keep the best-so-far distances
		}
		if roundSize < maxRoundChunks*verifyChunk {
			roundSize *= 2
		}
	}
	ix.foldQuality(tasks)
	return nil
}

// foldQuality aggregates the per-task verification state into the
// search stats, worst case over item queries, so one starved column
// marks the whole search progressive. A search whose every task
// completed — or sealed early — reports the zero-risk values.
func (ix *Index) foldQuality(tasks []*verifyTask) {
	st := &ix.stats
	st.FracVerified, st.LBGap, st.ProbExact = 1, 0, 1
	kept, verified := 0, 0
	for _, t := range tasks {
		unverified := t.order[t.next:]
		kept += t.verified + len(unverified)
		verified += t.verified
		if len(unverified) == 0 {
			continue
		}
		// The bar an unverified candidate must beat, and the closest any
		// of them can come (order is lower-bound ascending).
		bar, minLB := t.eps, t.lbs[unverified[0]]
		if t.k > 0 {
			bar = t.top.kth()
		}
		// Sealed early: every unverified lower bound already exceeds the
		// k-th best-so-far distance, so the set is provably exact (up to
		// distance ties) even though verification stopped. Range tasks
		// need the strict comparison — a candidate at lb == ε can still
		// sit exactly on the radius.
		if minLB > bar || (t.k > 0 && minLB >= bar) {
			continue
		}
		st.Progressive = true
		gap := 1.0
		if !math.IsInf(bar, 1) && bar > 0 {
			gap = min(max(1-minLB/bar, 0), 1)
		}
		st.LBGap = max(st.LBGap, gap)
		remaining := sort.Search(len(unverified), func(i int) bool { return !(t.lbs[unverified[i]] < bar) })
		st.ProbExact = min(st.ProbExact, estimateProbExact(t.flips, t.atRisk, remaining))
	}
	if !st.Progressive {
		return
	}
	st.FracVerified = float64(verified) / float64(kept)
	st.VerifiedAtDeadline = verified
}

// estimateProbExact is the ProS-style stopping estimate (Echihabi et
// al., arXiv 2212.13310): a kNN search that verifies candidates in
// ascending lower-bound order can stop at any point and report the
// probability that its best-so-far set already equals the exact set.
// During verification, atRisk counts candidates whose lower bound was
// below the running k-th best distance (so they could have entered the
// set) and flips counts how many actually did. The empirical flip rate,
// Laplace-smoothed so tiny samples stay conservative, gives the
// probability that none of the remaining at-risk candidates would flip
// the set either.
func estimateProbExact(flips, atRisk, remaining int) float64 {
	if remaining <= 0 {
		return 1
	}
	rate := (float64(flips) + 1) / (float64(atRisk) + 2)
	if rate >= 1 {
		return 0
	}
	return math.Pow(1-rate, float64(remaining))
}
