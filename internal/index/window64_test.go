package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/memsys"
)

// index64 is the float64 window level the index kept before it stored
// the level in float32: every posting-list entry and disjoint-window
// envelope exactly as computed. It is the reference the bound tests
// hold the float32 level to (window32_test.go): each stored entry must
// bound it from the safe side, and a search must return its neighbours
// and distances bit for bit.
//
// It embeds the Index it shadows, so it shares the history, the
// threshold seeds, the verifier and the device, and keeps its own
// window level in the fields below. The methods after the constructor
// are the float64 implementation verbatim, receiver aside; SearchMulti
// and SearchMultiCtx reach the Index's filter and verifier through the
// embedding and this type's own Sync and group-level pass.
type index64 struct {
	*Index

	synced int
	built  bool

	nDW          int
	dwEnvU       [][]float64
	dwEnvL       [][]float64
	dwCtxPending []int

	postEQ [][]float64
	postEC [][]float64
	cursor int

	mqEnvU, mqEnvL []float64
}

// newIndex64 opens an index over history and gives it the float64
// window level.
func newIndex64(dev *gpusim.Device, history []float64, p Params) (*index64, error) {
	ix, err := New(dev, history, p)
	if err != nil {
		return nil, err
	}
	return &index64{Index: ix, synced: ix.synced}, nil
}

// slot maps a logical sliding-window offset b to its physical ring row.
func (ix *index64) slot(b int) int {
	return (ix.cursor + b) % ix.nSW
}

// swEnvelope returns the envelope of the sliding window at logical
// offset b, sliced from the master-query envelope so neighbouring
// context inside MQ is honoured.
func (ix *index64) swEnvelope(b int) (u, l []float64) {
	// MQ spans history [len−dmax, len); the window spans [swStart,
	// swStart+ω); within MQ coordinates it starts at dmax − b − ω.
	off := ix.dmax - b - ix.p.Omega
	return ix.mqEnvU[off : off+ix.p.Omega], ix.mqEnvL[off : off+ix.p.Omega]
}

// computeDWEnvelope (re)computes the envelope of disjoint window r with
// full-series context and tracks whether its right context is complete.
func (ix *index64) computeDWEnvelope(r int) {
	omega, rho := ix.p.Omega, ix.p.Rho
	start := r * omega
	u := make([]float64, omega)
	l := make([]float64, omega)
	for i := 0; i < omega; i++ {
		lo, hi := start+i-rho, start+i+rho
		if lo < 0 {
			lo = 0
		}
		if hi > len(ix.c)-1 {
			hi = len(ix.c) - 1
		}
		mx, mn := ix.c[lo], ix.c[lo]
		for j := lo + 1; j <= hi; j++ {
			if ix.c[j] > mx {
				mx = ix.c[j]
			}
			if ix.c[j] < mn {
				mn = ix.c[j]
			}
		}
		u[i] = mx
		l[i] = mn
	}
	ix.dwEnvU[r] = u
	ix.dwEnvL[r] = l
	if (r+1)*omega+rho > len(ix.c) {
		// Right context incomplete: remember to refresh later.
		for _, p := range ix.dwCtxPending {
			if p == r {
				return
			}
		}
		ix.dwCtxPending = append(ix.dwCtxPending, r)
	}
}

// refreshMQEnvelope recomputes the master-query envelope, clamped to
// the master query's own extent (Definition B.1 applied to MQ).
func (ix *index64) refreshMQEnvelope() {
	mq := ix.c[len(ix.c)-ix.dmax:]
	env := dtw.NewEnvelope(mq, ix.p.Rho)
	ix.mqEnvU, ix.mqEnvL = env.Upper, env.Lower
}

// fillPostingRow computes the posting list of the sliding window at
// logical offset b against disjoint windows [rLo, rHi) into its
// physical slot, charging blk for the work. When eqOnly is true only
// the LBEQ half is recomputed (the envelope-refresh path of Remark 1).
func (ix *index64) fillPostingRow(blk *gpusim.Block, b, rLo, rHi int, eqOnly bool) {
	omega := ix.p.Omega
	s := ix.slot(b)
	swLo := ix.swStart(b)
	sw := ix.c[swLo : swLo+omega]
	swU, swL := ix.swEnvelope(b)
	eq := ix.postEQ[s]
	ec := ix.postEC[s]
	for r := rLo; r < rHi; r++ {
		dwLo := r * omega
		dw := ix.c[dwLo : dwLo+omega]
		var sumEQ, sumEC float64
		for i := 0; i < omega; i++ {
			// LBEQ: data point vs query envelope.
			if v := dw[i]; v > swU[i] {
				d := v - swU[i]
				sumEQ += d * d
			} else if v < swL[i] {
				d := v - swL[i]
				sumEQ += d * d
			}
			if !eqOnly {
				// LBEC: query point vs data envelope.
				if q := sw[i]; q > ix.dwEnvU[r][i] {
					d := q - ix.dwEnvU[r][i]
					sumEC += d * d
				} else if q < ix.dwEnvL[r][i] {
					d := q - ix.dwEnvL[r][i]
					sumEC += d * d
				}
			}
		}
		eq[r] = sumEQ
		if !eqOnly {
			ec[r] = sumEC
		}
	}
	// Cost model: each (SW,DW) pair touches 2ω global words and does
	// ~4ω flops per bound; ω lanes work in parallel per pair.
	pairs := rHi - rLo
	if pairs > 0 {
		blk.GlobalAccess(2 * omega * pairs)
		blk.ParallelCompute(omega*pairs, 8)
	}
}

// rebuildWindowLevel recomputes every posting row — the from-scratch
// branch of Sync. One GPU block processes one sliding window (Section
// 4.3.1).
func (ix *index64) rebuildWindowLevel() error {
	ix.cursor = 0
	return ix.dev.Launch(ix.nSW, func(blk *gpusim.Block) error {
		ix.fillPostingRow(blk, blk.ID, 0, ix.nDW, false)
		return nil
	})
}

// growPostingRows extends every physical posting row (allocating the
// ring on first use) with slots for newly completed disjoint windows.
func (ix *index64) growPostingRows() {
	if ix.postEQ == nil {
		ix.postEQ = make([][]float64, ix.nSW)
		ix.postEC = make([][]float64, ix.nSW)
	}
	for s := 0; s < ix.nSW; s++ {
		ix.postEQ[s] = grow(ix.postEQ[s], ix.nDW, growHeadroom)
		ix.postEC[s] = grow(ix.postEC[s], ix.nDW, growHeadroom)
	}
}

// extendDWColumns fills posting-list entries for newly completed
// disjoint windows [oldNDW, nDW) across sliding windows [bLo, nSW).
func (ix *index64) extendDWColumns(oldNDW, bLo int) error {
	if ix.nDW == oldNDW || bLo >= ix.nSW {
		return nil
	}
	return ix.dev.Launch(ix.nSW-bLo, func(blk *gpusim.Block) error {
		ix.fillPostingRow(blk, bLo+blk.ID, oldNDW, ix.nDW, false)
		return nil
	})
}

// refreshPendingDWColumns re-derives envelopes (and posting columns)
// for disjoint windows whose right context was incomplete when they
// were first indexed.
func (ix *index64) refreshPendingDWColumns() error {
	if len(ix.dwCtxPending) == 0 {
		return nil
	}
	pending := ix.dwCtxPending
	ix.dwCtxPending = nil
	for _, r := range pending {
		ix.computeDWEnvelope(r)
	}
	return ix.dev.Launch(ix.nSW, func(blk *gpusim.Block) error {
		for _, r := range pending {
			ix.fillPostingRow(blk, blk.ID, r, r+1, false)
		}
		return nil
	})
}

// Sync brings the window level up to the history. Every search calls it
// first; it is exported so benchmarks can time index maintenance apart
// from the search that would otherwise pay for it.
//
// With m observations appended since the last Sync, the master query
// has shifted m steps. Reusing the window level per Remark 1, the ring
// cursor steps back m rows, the vacated rows are filled with the m new
// rightmost sliding windows, and the LBEQ halves of the ρ rows whose
// query envelopes gained new points are recomputed; new and
// context-pending disjoint windows are folded in — min(m+ρ, nSW) rows of
// work however the m observations arrived. A window level that was
// never built, or a gap that leaves no row to reuse (m+ρ ≥ nSW), is
// built from scratch instead.
//
// The three paths need not produce bit-equal posting planes (a reused
// row keeps the query envelope it had when its right context completed,
// which may reach left of the current master query and so be looser
// than a rebuilt row's), but every entry is a valid lower bound, and
// exact DTW verification behind any valid lower bound yields the exact
// kNN set. A failed Sync leaves the window level marked not built, so
// the next one rebuilds it from the history.
func (ix *index64) Sync() error {
	if ix.closed {
		return errors.New("index: closed")
	}
	m := len(ix.c) - ix.synced
	if ix.built && m == 0 {
		return nil
	}
	start := time.Now()
	rho := ix.p.Rho
	rebuilt := !ix.built || m+rho >= ix.nSW
	ix.built = false // until every step below has succeeded

	oldNDW := ix.nDW
	if rebuilt {
		oldNDW = 0
		ix.dwCtxPending = nil
	}
	ix.nDW = len(ix.c) / ix.p.Omega
	ix.dwEnvU = grow(ix.dwEnvU, ix.nDW, growHeadroom)
	ix.dwEnvL = grow(ix.dwEnvL, ix.nDW, growHeadroom)
	for r := oldNDW; r < ix.nDW; r++ {
		ix.computeDWEnvelope(r)
	}
	ix.refreshMQEnvelope()
	ix.growPostingRows()

	if rebuilt {
		if err := ix.rebuildWindowLevel(); err != nil {
			return err
		}
	} else {
		// Rotate: logical b ∈ [0, m) must land on the slots of the m
		// previous oldest windows (previous b ∈ [nSW−m, nSW)). Moving the
		// cursor back m positions achieves exactly that.
		ix.cursor = (ix.cursor - m + ix.nSW) % ix.nSW
		if err := ix.dev.Launch(m+rho, func(blk *gpusim.Block) error {
			b := blk.ID
			// b < m are the brand-new rightmost windows: full recompute.
			// b ∈ [m, m+ρ) are reused rows whose query envelope changed:
			// only LBEQ needs refreshing (Fig. 6).
			ix.fillPostingRow(blk, b, 0, ix.nDW, b >= m)
			return nil
		}); err != nil {
			return err
		}
		// Every reused row still needs both bound halves for the
		// brand-new DW columns (the eqOnly refresh above left their LBEC
		// at zero).
		if err := ix.extendDWColumns(oldNDW, m); err != nil {
			return err
		}
		if err := ix.refreshPendingDWColumns(); err != nil {
			return err
		}
	}
	ix.built, ix.synced = true, len(ix.c)
	ix.stats.CatchupSteps = m
	ix.stats.Rebuilt = rebuilt
	ix.stats.CatchupWallSeconds = time.Since(start).Seconds()
	return nil
}

// SearchMulti answers the Suffix kNN Search for several horizons in a
// single pass. The horizon only changes the label-validity mask
// (candidates must satisfy t ≤ |C| − d − h), so the group-level lower
// bounds are produced once and each candidate segment's DTW is
// verified at most once, no matter how many horizons ask for it. The
// result maps each horizon to its per-item-query kNN sets.
func (ix *index64) SearchMulti(k int, hs []int) (map[int][]ItemResult, error) {
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
func (ix *index64) SearchMultiCtx(ctx context.Context, k int, hs []int) (map[int][]ItemResult, error) {
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

// ComputeLowerBounds exposes the group-level lower-bound pass on its
// own: one bound slice per ELV entry, indexed by candidate position
// (+Inf where no valid candidate exists). The Fig. 8 experiment uses
// it to compare LBen production with and without the window-level
// index.
func (ix *index64) ComputeLowerBounds(h int) ([][]float64, error) {
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
func (ix *index64) groupLevelLowerBounds(ctx context.Context, h int) ([][]float64, error) {
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
				sumEQ += ix.postEQ[s][r-j]
				sumEC += ix.postEC[s][r-j]
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
