package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/memsys"
)

// Neighbor is one kNN result: the segment C[T : T+D] at distance Dist
// from the item query of length D. Its h-step-ahead label is the
// observation C[T+D-1+h].
type Neighbor struct {
	T    int
	Dist float64
}

// ItemResult holds the kNN set of one item query.
type ItemResult struct {
	// D is the item query length (an entry of ELV).
	D int
	// Neighbors is sorted ascending by distance (ties by T). It may be
	// shorter than k when the history has fewer valid candidates.
	Neighbors []Neighbor
}

// Search answers the Suffix kNN Search for the current master query:
// for every item query length in ELV it returns the k nearest
// historical segments under banded DTW, considering only candidates
// whose h-step-ahead label already exists (t ≤ |C| − d − h). The
// result slice is ordered like ELV.
func (ix *Index) Search(k, h int) ([]ItemResult, error) {
	return ix.SearchCtx(context.Background(), k, h)
}

// SearchCtx is Search with a context: the one-horizon case of
// SearchMultiCtx, with the same deadline contract.
func (ix *Index) SearchCtx(ctx context.Context, k, h int) ([]ItemResult, error) {
	res, err := ix.SearchMultiCtx(ctx, k, []int{h})
	if err != nil {
		return nil, err
	}
	return res[h], nil
}

// SearchMulti answers the Suffix kNN Search for several horizons in a
// single pass. The horizon only changes the label-validity mask
// (candidates must satisfy t ≤ |C| − d − h), so the group-level lower
// bounds are produced once and each candidate segment's DTW is
// verified at most once, no matter how many horizons ask for it. The
// result maps each horizon to its per-item-query kNN sets.
func (ix *Index) SearchMulti(k int, hs []int) (map[int][]ItemResult, error) {
	return ix.SearchMultiCtx(context.Background(), k, hs)
}

// SearchMultiCtx is SearchMulti with a context, and the one
// filter → verify → select driver behind every search (paper
// §4.3.3–4.4): reset the stats, catch the window level up with the
// history, produce the group-level lower bounds under the label mask of
// the smallest horizon, build one verify task per item query that has
// candidates, verify them all together, fold the per-item counters, and
// k-select each horizon's neighbours from the verified distances. The
// deadline contract is the quality ladder: a context that expires during
// the lower-bound pass surfaces as ctx.Err() (no best-so-far set exists
// yet); one that expires later stops the verification rounds and the
// call returns the always-valid best-so-far kNN sets, with Stats()
// reporting whether they are provably exact and, if not, how good they
// are estimated to be (see verify).
func (ix *Index) SearchMultiCtx(ctx context.Context, k int, hs []int) (map[int][]ItemResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("index: k=%d must be positive", k)
	}
	if len(hs) == 0 {
		return nil, errors.New("index: empty horizon list")
	}
	sorted := append([]int(nil), hs...)
	sort.Ints(sorted)
	hMin := sorted[0]
	if hMin <= 0 {
		return nil, fmt.Errorf("index: horizon h=%d must be positive", hMin)
	}
	ix.stats = SearchStats{}
	if err := ix.Sync(); err != nil { // also refuses a closed index
		return nil, err
	}
	lbs, err := ix.groupLevelLowerBounds(ctx, hMin)
	if err != nil {
		return nil, err
	}
	defer releaseBounds(lbs)

	n := len(ix.c)
	tasks := make([]*verifyTask, len(ix.p.ELV)) // nil: item query without candidates
	var live []*verifyTask
	defer func() {
		for _, t := range live {
			t.release()
		}
	}()
	for i, d := range ix.p.ELV {
		if len(lbs[i]) == 0 {
			continue
		}
		t, err := ix.newTask(d, k, sorted, lbs[i])
		if err != nil {
			return nil, err
		}
		tasks[i] = t
		live = append(live, t)
	}
	if err := ix.verify(ctx, live); err != nil {
		return nil, err
	}
	out := make(map[int][]ItemResult, len(sorted))
	for _, h := range sorted {
		out[h] = make([]ItemResult, len(ix.p.ELV))
	}
	for i, d := range ix.p.ELV {
		var dists []float64 // exact DTW or +Inf; nil without candidates
		if t := tasks[i]; t != nil {
			ix.stats.PerItem[i].Unfiltered = t.seeded + t.ran
			ix.stats.Unfiltered += t.seeded + t.ran
			ix.stats.CascadePruned += t.pruned
			ix.stats.Sealed += t.sealed
			ix.stats.Columns += t.columns
			dists = t.dists
		}
		for _, h := range sorted {
			var neighbors []Neighbor
			if maxT := n - d - h; maxT >= 0 {
				if neighbors, err = ix.kSelect(dists[:maxT+1], k); err != nil {
					return nil, err
				}
			}
			out[h][i] = ItemResult{D: d, Neighbors: neighbors}
			if h == hMin {
				// Next step's threshold seeds (Section 4.3.3, Filtering).
				prev := make([]int, len(neighbors))
				for j, nb := range neighbors {
					prev[j] = nb.T
				}
				ix.prevNN[d] = prev
			}
		}
	}
	return out, nil
}

// newTask builds the verify task of item query length d over its
// candidates' lower bounds. The survivors are the union of the
// per-horizon filters, each threshold derived on its own candidate
// range. The early-abandon cutoff is the max threshold over horizons:
// τ_h ≤ τ_max for every h, so a candidate abandoned at τ_max has true
// distance > τ_max ≥ τ_h and cannot be among any horizon's k nearest —
// the seeds backing each τ_h all have true distance ≤ τ_h and survive
// fully computed. Ties at τ survive too, because abandonment fires only
// on strictly greater column minima. DisableEarlyAbandon makes the
// cutoff +Inf.
func (ix *Index) newTask(d, k int, sorted []int, lbs []float64) (*verifyTask, error) {
	n := len(ix.c)
	query := ix.c[n-d:]
	t := &verifyTask{d: d, query: query, lbs: lbs, k: k}
	tauMax := math.Inf(-1)
	for _, h := range sorted {
		maxT := n - d - h
		if maxT < 0 {
			break // ascending horizons: no later one has a candidate either
		}
		tau, seeds, err := ix.threshold(d, query, lbs[:maxT+1], k)
		if err != nil {
			return nil, err
		}
		t.filters = append(t.filters, horizonFilter{maxT: maxT, tau: tau})
		t.seeds = append(t.seeds, seeds...)
		if tau > tauMax {
			tauMax = tau
		}
	}
	t.cutoff = tauMax
	if ix.p.DisableEarlyAbandon {
		t.cutoff = math.Inf(1)
	}
	return t, nil
}

// ComputeLowerBounds exposes the group-level lower-bound pass on its
// own: one bound slice per ELV entry, indexed by candidate position
// (+Inf where no valid candidate exists). The Fig. 8 experiment uses
// it to compare LBen production with and without the window-level
// index.
func (ix *Index) ComputeLowerBounds(h int) ([][]float64, error) {
	if ix.closed {
		return nil, errors.New("index: closed")
	}
	if h <= 0 {
		return nil, fmt.Errorf("index: horizon h=%d must be positive", h)
	}
	ix.stats = SearchStats{}
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return ix.groupLevelLowerBounds(context.Background(), h)
}

// groupLevelLowerBounds runs the group-level kernel: one block per CSG
// identifier b ∈ [0, ω), shift-summing window-level posting lists to
// produce, for every item query i and candidate position t, the window
// enhanced lower bound LBw (Theorem 4.3, Algorithm 1). Positions whose
// label does not exist yet are left at +Inf.
func (ix *Index) groupLevelLowerBounds(ctx context.Context, h int) ([][]float64, error) {
	wallStart := time.Now()
	defer func() { ix.stats.LowerBoundWallSeconds += time.Since(wallStart).Seconds() }()
	n := len(ix.c)
	omega := ix.p.Omega
	inf := math.Inf(1)

	lbs := make([][]float64, len(ix.p.ELV))
	maxT := make([]int, len(ix.p.ELV))
	for i, d := range ix.p.ELV {
		maxT[i] = n - d - h // last candidate start with an existing label
		if maxT[i] < 0 {
			maxT[i] = -1
		}
		// History-length bound rows are the Search Step's biggest
		// transient; SearchMultiCtx returns them to the pool when the results
		// have been extracted.
		lbs[i] = memsys.GetFloats(maxT[i] + 1)
		for t := range lbs[i] {
			lbs[i][t] = inf
		}
	}

	before := ix.dev.SimSeconds()
	err := ix.dev.Launch(omega, func(blk *gpusim.Block) error {
		// Per-block deadline check: an expired context aborts the pass
		// within the blocks already in flight.
		if err := ctx.Err(); err != nil {
			return err
		}
		b := blk.ID
		// Precompute, per item query, the CSG size m_i = ⌊(d_i−b)/ω⌋
		// and remainder used by the alignment formula (Lemma 4.1).
		m := make([]int, len(ix.p.ELV))
		rem := make([]int, len(ix.p.ELV))
		for i, d := range ix.p.ELV {
			m[i] = (d - b) / omega
			rem[i] = (d - b) % omega
		}
		maxJ := (ix.nSW - 1 - b) / omega // deepest window of CSG_b in MQ
		for r := 0; r < ix.nDW; r++ {
			var sumEQ, sumEC float64
			jHi := maxJ
			if r < jHi {
				jHi = r
			}
			for j := 0; j <= jHi; j++ {
				s := ix.slot(b + j*omega)
				sumEQ += float64(ix.postEQ[s][r-j])
				sumEC += float64(ix.postEC[s][r-j])
				blk.GlobalAccess(2)
				blk.Compute(2)
				for i := range ix.p.ELV {
					if m[i] != j+1 {
						continue
					}
					t := (r-j)*omega - rem[i]
					if t < 0 || t > maxT[i] {
						continue
					}
					var lb float64
					switch ix.p.LB {
					case LBModeEQ:
						lb = sumEQ
					case LBModeEC:
						lb = sumEC
					default:
						lb = math.Max(sumEQ, sumEC)
					}
					lbs[i][t] = lb
					blk.GlobalAccess(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		releaseBounds(lbs) // deadline aborts are routine; don't leak the pooled rows
		return nil, err
	}
	ix.stats.LowerBoundSimSeconds += ix.dev.SimSeconds() - before
	ix.stats.PerItem = make([]ItemStats, len(ix.p.ELV))
	for i := range lbs {
		cnt := 0
		for _, v := range lbs[i] {
			if !math.IsInf(v, 1) {
				cnt++
			}
		}
		ix.stats.PerItem[i] = ItemStats{D: ix.p.ELV[i], Candidates: cnt}
		ix.stats.Candidates += cnt
	}
	return lbs, nil
}

// seedCand is one threshold seed: a candidate position whose exact DTW
// distance to the current query was computed while deriving τ. The
// seeds prefill the verification output — during continuous prediction
// they are the previous step's kNN set, so verification starts from an
// already-valid best-so-far answer before its first round runs.
type seedCand struct {
	t    int
	dist float64
}

// threshold derives the filter threshold τ for one item query. During
// continuous prediction it reuses the previous step's kNN positions
// (their DTW distances to the *current* query upper-bound the new k-th
// NN distance); where those run short — the first query, or a horizon
// longer than the previous one, whose label mask drops the most recent
// neighbours — it tops them up to k with the candidates of smallest
// lower bound. Either way at least k candidates have true distance ≤ τ,
// so no true neighbour is filtered. The returned seeds carry those exact
// distances (each ≤ τ, so the τ-cutoff verification pass would reproduce
// them bit-identically).
func (ix *Index) threshold(d int, query []float64, lbs []float64, k int) (float64, []seedCand, error) {
	var seeds []int
	for _, t := range ix.prevNN[d] {
		if t < len(lbs) { // still label-valid
			seeds = append(seeds, t)
		}
	}
	if len(seeds) < k {
		var sel []gpusim.KSelectResult
		if err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
			sel = gpusim.KSelectBlock(blk, lbs, k)
			return nil
		}); err != nil {
			return 0, nil, err
		}
		for _, s := range sel {
			if len(seeds) < k && !slices.Contains(seeds, s.Index) {
				seeds = append(seeds, s.Index)
			}
		}
	}
	if len(seeds) == 0 {
		return math.Inf(1), nil, nil
	}
	out := make([]seedCand, 0, len(seeds))
	tau := math.Inf(-1)
	rho := ix.p.Rho
	err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
		if err := chargeVerifyBlock(blk, d, rho, len(seeds)); err != nil {
			return err
		}
		scratch := dtw.GetLaneScratch(rho)
		defer dtw.PutLaneScratch(scratch)
		// Seeds run uncut and unbounded, dtw.Lanes at a time where the
		// index may (see verifyLanes); the rest one by one.
		for len(out) < len(seeds) {
			var dists [dtw.Lanes]float64
			var cands [dtw.Lanes][]float64
			group := seeds[len(out):min(len(out)+dtw.Lanes, len(seeds))]
			var err error
			if len(group) == dtw.Lanes && ix.lanes() {
				for l, t := range group {
					cands[l] = ix.c[t : t+d]
				}
				dists, _, err = dtw.DistanceLanes(query, cands, rho, math.Inf(1), [dtw.Lanes][]float64{}, scratch)
			} else {
				group = group[:1]
				dists[0], err = dtw.DistanceCompressed(query, ix.c[group[0]:group[0]+d], rho, scratch)
			}
			if err != nil {
				return err
			}
			for l, t := range group {
				out = append(out, seedCand{t: t, dist: dists[l]})
				ix.stats.Columns += d
				if dists[l] > tau {
					tau = dists[l]
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return tau, out, nil
}

// chargeVerifyBlock charges the cost model for a verification block:
// the query and the compressed warping matrix live in shared memory
// (Algorithm 2 / Appendix E), candidates stream from global memory,
// and each thread fills its candidate's d·(2ρ+1) band cells — about
// six ops per cell counting the shared-memory traffic, which is
// lane-parallel and therefore folded into the per-thread op count.
func chargeVerifyBlock(blk *gpusim.Block, d, rho, candidates int) error {
	if err := blk.AllocShared(8 * d); err != nil { // query resident
		return err
	}
	if err := blk.AllocShared(8 * dtw.CompressedScratchLen(rho)); err != nil {
		return err
	}
	blk.GlobalAccess(d * candidates)
	blk.ParallelCompute(candidates, d*(2*rho+1)*6)
	return nil
}

// releaseBounds returns pooled lower-bound rows. Nothing below the
// Search entry points retains them: verify tasks alias the rows only
// for the duration of the call, and every output (Neighbor lists,
// prevNN) is copied out.
func releaseBounds(lbs [][]float64) {
	for i, s := range lbs {
		lbs[i] = nil
		memsys.PutFloats(s)
	}
}

// kSelect runs the block k-selection kernel: the k smallest finite
// distances, ascending (ties by position).
func (ix *Index) kSelect(dists []float64, k int) ([]Neighbor, error) {
	if len(dists) == 0 {
		return nil, nil // an item query without candidates pays no launch
	}
	var sel []gpusim.KSelectResult
	if err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
		sel = gpusim.KSelectBlock(blk, dists, k)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(sel))
	for i, s := range sel {
		out[i] = Neighbor{T: s.Index, Dist: s.Value}
	}
	return out, nil
}
