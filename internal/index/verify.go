package index

import (
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

// firstRound is the number of survivors per item query the first
// verification round takes (Index.firstRound, a field so tests can force
// other schedules), and maxRoundChunks caps a round at that many verify
// chunks per item query. Rounds grow geometrically in between.
// The first round is short because it is the one that runs with the
// loosest cutoff — τ, before any survivor has been measured — and
// everything after it runs against the k-th best distance found so far;
// on the repository benchmark's traffic (BenchmarkContinuousGPLoop) 64
// cost 56.5k band columns per search where 256 cost 63.3k, and 16 saved
// 1.3k more for twice the launches. The cap bounds deadline overshoot to
// one round of in-flight chunks.
const (
	firstRound     = 64
	maxRoundChunks = 8
)

// horizonFilter is one horizon's slice of an item query's filter:
// candidates at positions ≤ maxT (the horizon's label-validity mask)
// survive when their lower bound is ≤ tau.
type horizonFilter struct {
	maxT int
	tau  float64
}

// verifyTask describes one item query's share of the verification:
// which candidates survive the filter, the early-abandon cutoff, and
// the output distances (+Inf for filtered, dismissed, abandoned or
// unverified candidates).
type verifyTask struct {
	d       int
	query   []float64
	lbs     []float64
	filters []horizonFilter // a candidate survives when any entry keeps it
	// cutoff is the distance above which a candidate is of no use to any
	// horizon: τ_max at first, the k-th best verified distance once that
	// is smaller (see tighten). +Inf means every survivor's exact distance
	// is wanted: no abandoning, no cascade, no tightening, no sealing.
	cutoff float64
	// seeds are the threshold candidates with their exact distances.
	seeds []seedCand
	// k is the selection size: the tops track each horizon's k best.
	k int

	dists []float64 // out: exact DTW or +Inf (pooled; release returns it)

	order []survivor // unseeded survivors, (lower bound, position) ascending
	next  int        // order[:next] is resolved: verified or dismissed
	// tops[i] is the running k best verified distances among the
	// candidates filters[i] admits. One set per horizon, because a
	// horizon's k-th distance says nothing about a horizon with a shorter
	// candidate range.
	tops []topK
	// queryEnv is the query's own envelope, built by the filter kernel
	// for tasks that run the cascade and empty for the others (pooled,
	// like the tops' storage).
	queryEnv dtw.Envelope
	pooled   [3][]float64 // dists, the tops' storage, the envelope

	seeded  int // seeds with prefilled distances
	ran     int // survivors the DTW kernel ran on
	pruned  int // survivors the O(d) cascade dismissed
	sealed  int // survivors dropped, untouched, by a tightened cutoff
	columns int // band columns the kernel processed
	flips   int // resolved at-risk candidates that entered a top-k set
	atRisk  int // resolved candidates that could have entered one
}

// keep reports whether candidate position pos must be verified: its
// bound does not exceed τ by more than the rounding margin a bound may
// carry above the distance it bounds (dtw.Slack), the margin the
// cascade and the kernel dismiss by too. Without it, a bound that came
// out a few ulps above a tied neighbour's exact distance would drop it.
func (t *verifyTask) keep(pos int) bool {
	lb := t.lbs[pos]
	for _, f := range t.filters {
		if pos <= f.maxT && lb <= dtw.Slack(f.tau) {
			return true
		}
	}
	return false
}

// bounded reports whether the task has a finite cutoff to prune against.
func (t *verifyTask) bounded() bool { return !math.IsInf(t.cutoff, 1) }

// pool takes n floats from memsys for the duration of the search.
func (t *verifyTask) pool(slot, n int) []float64 {
	t.pooled[slot] = memsys.GetFloats(n)
	return t.pooled[slot]
}

// release returns the task's pooled storage.
func (t *verifyTask) release() {
	for i, s := range t.pooled {
		memsys.PutFloats(s)
		t.pooled[i] = nil
	}
	t.dists = nil
}

// topK tracks the running k smallest verified distances (ascending) over
// storage the task lends it. It backs the cutoff and the quality
// estimate; the returned neighbours come from the block k-selection.
type topK struct {
	k int
	d []float64
}

// add inserts a finite distance, reporting whether it entered the set
// (displaced the current k-th or grew the set below k).
func (t *topK) add(v float64) bool {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return false
	}
	if len(t.d) == t.k && v >= t.d[t.k-1] {
		return false
	}
	i := sort.SearchFloat64s(t.d, v)
	if len(t.d) < t.k {
		t.d = t.d[:len(t.d)+1]
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

// bar is the distance a candidate must not exceed to matter to the
// task: the largest, over the task's horizons, of the horizon's own k-th
// best verified distance. A candidate beyond it has, in every horizon
// that admits it, k verified candidates strictly closer.
func (t *verifyTask) bar() float64 {
	bar := math.Inf(-1)
	for i := range t.tops {
		bar = max(bar, t.tops[i].kth())
	}
	return bar
}

// record folds one verified distance into the top-k set of every horizon
// that admits pos, reporting whether it entered any.
func (t *verifyTask) record(pos int, dist float64) bool {
	entered := false
	for i := range t.tops {
		if pos <= t.filters[i].maxT && t.tops[i].add(dist) {
			entered = true
		}
	}
	return entered
}

// survivor is a candidate position that passed the filter, with its
// lower bound beside it, so that sorting and sealing compare values they
// hold.
type survivor struct {
	lb  float64
	pos int
}

// filter is the first of the two phases (Section 4.4): one pass over
// the item query's candidate positions that prefills the threshold
// seeds — each has dist ≤ τ, so the τ-cutoff verification would compute
// the identical value and skipping its slot changes nothing — and
// collects the remaining survivors in (lower bound, position) order, a
// strict total order that keeps rounds deterministic. With cascade set,
// a task that has a cutoff to run it against also gets its query
// envelope here, once.
func (t *verifyTask) filter(blk *gpusim.Block, rho int, cascade bool) {
	n := len(t.lbs)
	blk.GlobalAccess(n) // every candidate's lower bound streams through the filter
	t.dists = t.pool(0, n)
	for i := range t.dists {
		t.dists[i] = math.Inf(1)
	}
	store := t.pool(1, t.k*len(t.filters))
	t.tops = make([]topK, len(t.filters))
	for i := range t.tops {
		t.tops[i] = topK{k: t.k, d: store[i*t.k : i*t.k : (i+1)*t.k]}
	}
	for _, s := range t.seeds {
		if !t.keep(s.t) || !math.IsInf(t.dists[s.t], 1) {
			continue
		}
		t.dists[s.t] = s.dist
		t.seeded++
		t.record(s.t, s.dist)
	}
	survives := func(pos int) bool { return t.keep(pos) && math.IsInf(t.dists[pos], 1) }
	count := 0
	for pos := 0; pos < n; pos++ {
		if survives(pos) {
			count++
		}
	}
	t.order = make([]survivor, 0, count)
	for pos := 0; pos < n; pos++ {
		if survives(pos) {
			t.order = append(t.order, survivor{t.lbs[pos], pos})
		}
	}
	// No NaN bound survives (keep needs lb ≤ Slack(τ)), so this is a
	// strict total order: cmp.Compare of the bounds, then of the
	// positions.
	slices.SortFunc(t.order, func(a, b survivor) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		}
		return a.pos - b.pos
	})
	if cascade && t.bounded() {
		env := t.pool(2, 2*t.d)
		t.queryEnv = dtw.Envelope{Upper: env[:t.d], Lower: env[t.d:]}
		dtw.EnvelopeInto(t.query, rho, t.queryEnv.Upper, t.queryEnv.Lower)
		blk.ParallelCompute(t.d, 2*(2*rho+1))
	}
	t.tighten() // the seeds are round zero
}

// tighten is what makes a round pay for the next one. On a task with a
// finite cutoff it lowers the cutoff to the k-th best distance
// verified so far (see bar), then seals: order is ascending in lower
// bound, so the survivors whose bound exceeds the new cutoff are its
// tail, and they are dropped without being touched. Both steps keep
// ties — a candidate at exactly the k-th distance may still win its
// place by position, so only a strictly greater distance, and only a
// bound beyond dtw.Slack of the cutoff, rules a candidate out.
func (t *verifyTask) tighten() {
	if !t.bounded() {
		return
	}
	t.cutoff = min(t.cutoff, t.bar())
	loose := dtw.Slack(t.cutoff)
	rest := t.order[t.next:]
	live := sort.Search(len(rest), func(i int) bool { return rest[i].lb > loose })
	t.sealed += len(rest) - live
	t.order = t.order[:t.next+live]
}

// verifyBlock is one grid block of a verification round: a verifyChunk
// of one task's survivors, and what became of them.
type verifyBlock struct {
	t                    *verifyTask
	lo, hi               int // range within t.order
	ran, pruned, columns int
}

// verify is the one DTW verifier behind every search. The filter kernel
// (one block per item query) prefills the seeds and orders the
// survivors cheapest lower bound first; the survivors are then verified
// in rounds, one fused launch per round — each grid block takes one
// verifyChunk of one task's survivors — and between rounds each task
// tightens its cutoff to the k-th best distance found so far and seals
// the survivors that can no longer matter (see tighten), so "exact" is
// the round at which the bound closes. Rounds start at firstRound
// survivors per item query and double up to maxRoundChunks chunks.
//
// Inside a block every candidate first pays an O(d) cascade against the
// round's cutoff: LB_Keogh of the candidate against the query's envelope,
// accumulated right to left so its partial sums bound the cost of the
// columns still to come. A candidate the bound dismisses stays at +Inf
// and costs no DTW column; the others run the banded kernel, which
// abandons as soon as a column's minimum plus the bound's remainder
// exceeds the cutoff. The cost model is charged for what ran: the
// cascade's pass over each candidate, the columns the kernel processed.
//
// The context is checked between rounds, and that is all a deadline
// changes: when it has expired the loop stops, each task keeps its
// best-so-far distances and foldQuality reports how close to exact they
// are. Device or DTW errors still abort. Cutoffs move only between
// rounds, on the host, in a fixed order, so a search is deterministic
// however its blocks are scheduled — and every cutoff it ever uses
// admits each horizon's k nearest, so a search that runs to completion
// returns the neighbours and distances of brute-force banded DTW bit for
// bit under any round schedule.
func (ix *Index) verify(ctx context.Context, tasks []*verifyTask) error {
	if len(tasks) == 0 {
		ix.foldQuality(tasks)
		return nil
	}
	wallStart := time.Now()
	defer func() { ix.stats.VerifyWallSeconds += time.Since(wallStart).Seconds() }()
	before := ix.dev.SimSeconds()
	defer func() { ix.stats.VerifySimSeconds += ix.dev.SimSeconds() - before }()

	// The cascade's bound is the E(Q) half of LBen, so — like the filter's
	// — it is off when Params.LB selects the other half alone.
	rho, cascade := ix.p.Rho, ix.p.LB != LBModeEC
	if err := ix.dev.Launch(len(tasks), func(blk *gpusim.Block) error {
		tasks[blk.ID].filter(blk, rho, cascade)
		return nil
	}); err != nil {
		return err
	}

	roundSize := ix.firstRound
	var blocks []verifyBlock
	for {
		blocks = blocks[:0]
		for _, t := range tasks {
			hi := min(t.next+roundSize, len(t.order))
			for lo := t.next; lo < hi; lo += verifyChunk {
				blocks = append(blocks, verifyBlock{t: t, lo: lo, hi: min(lo+verifyChunk, hi)})
			}
		}
		if len(blocks) == 0 {
			break // every task fully verified
		}
		ix.stats.Rounds++
		roundStart := time.Now()
		err := ix.dev.Launch(len(blocks), func(blk *gpusim.Block) error {
			return ix.verifyLanes(blk, &blocks[blk.ID])
		})
		ix.stats.RoundWallSeconds = append(ix.stats.RoundWallSeconds, time.Since(roundStart).Seconds())
		if err != nil {
			return err
		}
		// Deterministic host-side accounting, in cost order: the top-k
		// sets behind the next cutoff and the flip bookkeeping behind the
		// ProS-style estimate.
		for i := range blocks {
			b := &blocks[i]
			b.t.ran += b.ran
			b.t.pruned += b.pruned
			b.t.columns += b.columns
		}
		for _, t := range tasks {
			hi := min(t.next+roundSize, len(t.order))
			for _, s := range t.order[t.next:hi] {
				if bar := t.bar(); s.lb < bar || math.IsInf(bar, 1) {
					t.atRisk++
					if t.record(s.pos, t.dists[s.pos]) {
						t.flips++
					}
				}
			}
			t.next = hi
			t.tighten()
		}
		if ctx.Err() != nil {
			break // deadline: keep the best-so-far distances
		}
		roundSize = min(2*roundSize, maxRoundChunks*verifyChunk)
	}
	ix.foldQuality(tasks)
	return nil
}

// verifyLanes runs one verification block: cascade, then kernel, per
// candidate (see verify). On an index whose history is all finite both
// run dtw.Lanes candidates at a time, in lock step, with the scalar
// kernels' bits: the cascade takes the block's survivors four by four in
// order (dtw.LBKeoghSuffixLanes), and its survivors fill the kernel's
// groups in that order (dtw.DistanceLanes). The last few of a block, and
// every candidate of any other index, run alone.
func (ix *Index) verifyLanes(blk *gpusim.Block, b *verifyBlock) error {
	t, d, rho := b.t, b.t.d, ix.p.Rho
	if err := blk.AllocShared(8 * d); err != nil { // query resident
		return err
	}
	if err := blk.AllocShared(8 * dtw.CompressedScratchLen(rho)); err != nil {
		return err
	}
	lanes := ix.lanes()
	width := 1 // candidates per kernel call
	if lanes {
		width = dtw.Lanes
	}
	scratch := dtw.GetLaneScratch(rho)
	defer dtw.PutLaneScratch(scratch)
	// The cascade's survivors waiting for the kernel — group[:n], with
	// their candidates and bound rows — and what it returned for them.
	var (
		group       [dtw.Lanes]int
		cands, rest [dtw.Lanes][]float64
		dists       [dtw.Lanes]float64
		cols        [dtw.Lanes]int
		n           int
	)
	// The cascade runs against the cutoff the round started with: the
	// bound accumulates right to left and stops once it exceeds it; its
	// partial sums are the kernel's remaining-cost bound. There are two
	// rows per lane: rest[l] for the group's slot l, and bound[l] for the
	// cascade's lane l, whose row is swapped into the slot its candidate
	// takes.
	cascade := t.queryEnv.Len() > 0
	var bound [dtw.Lanes][]float64
	if cascade {
		if err := blk.AllocShared(8 * 2 * d); err != nil { // query envelope resident
			return err
		}
		rows := memsys.GetFloats(2 * dtw.Lanes * (d + 1))
		defer memsys.PutFloats(rows)
		for l := range rest {
			rest[l] = rows[l*(d+1) : (l+1)*(d+1)]
			bound[l] = rows[(dtw.Lanes+l)*(d+1) : (dtw.Lanes+l+1)*(d+1)]
		}
	}
	loose := dtw.Slack(t.cutoff)
	read, maxCols := 0, 0 // points the bound read; longest kernel lane
	// flush runs the kernel on group[:n]: in lock step when that is a full
	// set of lanes, one candidate at a time otherwise.
	flush := func() error {
		var err error
		if n == dtw.Lanes {
			dists, cols, err = dtw.DistanceLanes(t.query, cands, rho, t.cutoff, rest, scratch)
		} else {
			for l := 0; l < n && err == nil; l++ {
				dists[l], cols[l], err = dtw.DistanceCompressedBounded(t.query, cands[l], rho, t.cutoff, rest[l], scratch)
			}
		}
		if err != nil {
			return err
		}
		for l, pos := range group[:n] {
			t.dists[pos] = dists[l]
			b.ran++
			b.columns += cols[l]
			maxCols = max(maxCols, cols[l])
		}
		n = 0
		return nil
	}
	// admit gives pos the next group slot, whose bound row already holds
	// its suffix sums, and runs a full group.
	admit := func(pos int) error {
		group[n], cands[n] = pos, ix.c[pos:pos+d]
		if n++; n == width {
			return flush()
		}
		return nil
	}
	order := t.order[b.lo:b.hi]
	if lanes && cascade {
		var x [dtw.Lanes][]float64
		for ; len(order) >= dtw.Lanes; order = order[dtw.Lanes:] {
			for l, s := range order[:dtw.Lanes] {
				x[l] = ix.c[s.pos : s.pos+d]
			}
			lbs, from := dtw.LBKeoghSuffixLanes(t.queryEnv, x, bound, loose)
			for l, s := range order[:dtw.Lanes] {
				read += d - from[l]
				if lbs[l] > loose {
					b.pruned++
					continue
				}
				rest[n], bound[l] = bound[l], rest[n]
				if err := admit(s.pos); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range order {
		if cascade {
			lb, from := dtw.LBKeoghSuffix(t.queryEnv, ix.c[s.pos:s.pos+d], rest[n], loose)
			read += d - from
			if lb > loose {
				b.pruned++
				continue
			}
		}
		if err := admit(s.pos); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// Honest accounting. The bound streams the candidate as far as it
	// read, at about three ops a point, lanes in lock step. Then the
	// kernel: candidates stream only the columns that were processed, and
	// each lane that reached it fills cols·(2ρ+1) band cells in lock-step
	// waves bounded by the longest lane.
	if cascade {
		blk.GlobalAccess(read)
		blk.ParallelCompute(b.hi-b.lo, 3*d)
	}
	blk.GlobalAccess(b.columns)
	blk.ParallelCompute(b.ran, maxCols*(2*rho+1)*6)
	return nil
}

// foldQuality aggregates the per-task verification state into the
// search stats, worst case over item queries, so one starved column
// marks the whole search progressive. A search whose every task
// completed — or sealed early — reports the zero-risk values.
func (ix *Index) foldQuality(tasks []*verifyTask) {
	st := &ix.stats
	st.FracVerified, st.LBGap, st.ProbExact = 1, 0, 1
	kept, resolved := 0, 0
	for _, t := range tasks {
		unverified := t.order[t.next:]
		kept += t.seeded + len(t.order)
		resolved += t.seeded + t.next
		if len(unverified) == 0 {
			continue
		}
		// The bar an unverified candidate must beat, and the closest any
		// of them can come (order is lower-bound ascending).
		bar, minLB := t.bar(), unverified[0].lb
		// Sealed early: every unverified lower bound already reaches the
		// k-th best-so-far distance, so the set is provably exact (up to
		// distance ties) even though verification stopped.
		if minLB >= bar {
			continue
		}
		st.Progressive = true
		gap := 1.0
		if !math.IsInf(bar, 1) && bar > 0 {
			gap = min(max(1-minLB/bar, 0), 1)
		}
		st.LBGap = max(st.LBGap, gap)
		remaining := sort.Search(len(unverified), func(i int) bool { return !(unverified[i].lb < bar) })
		st.ProbExact = min(st.ProbExact, estimateProbExact(t.flips, t.atRisk, remaining))
	}
	if !st.Progressive {
		return
	}
	st.FracVerified = float64(resolved) / float64(kept)
	st.VerifiedAtDeadline = resolved
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
