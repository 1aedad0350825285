// Package index implements the SMiLer Index (paper Section 4.3): a
// two-level inverted-like index on the (simulated) GPU that answers
// the Continuous Suffix kNN Search problem (Definition 4.1) under
// banded DTW.
//
// Window level: the sensor history C is cut into disjoint windows DW of
// length ω; the master query MQ (the most recent d_max points) is cut
// into sliding windows SW of the same length, enumerated right-to-left.
// Each sliding window's posting list stores, per disjoint window, the
// two LB_Keogh bounds LBEQ(SW,DW) (query envelope) and LBEC(SW,DW)
// (data envelope).
//
// Group level: a Catenated Sliding Window Group CSG_b stacks the
// non-overlapping sliding windows {SW_b, SW_{b+ω}, ...}. Shift-summing
// the posting lists of a CSG's windows yields, in one pass, the window
// enhanced lower bound LBw (Theorem 4.3) between *every* item query
// (suffix of MQ with a length from ELV) and every candidate segment —
// the suffix-sharing reuse of Remark 2.
//
// Continuous prediction reuses the window level across steps (Remark
// 1): posting lists live in a rotating ring; advancing m time steps
// computes m fresh sliding-window rows, refreshes the ρ rows whose query
// envelopes changed, and drops the m stale oldest rows. The window level
// is maintained semi-lazily: Advance only appends to the history, and
// the next search catches the ring up in one batch (Sync).
//
// Search then follows the paper's filter → verify → select pipeline
// (Section 4.3.3): threshold from the k-th smallest lower bound (or
// from the previous step's kNN set during continuous prediction),
// exact banded DTW with the compressed warping matrix of Algorithm 2,
// and block-wise k-selection.
package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
)

// LBMode selects which lower bound the filter uses. The paper's system
// uses LBEn; the single-envelope modes exist to reproduce the Table 3
// ablation.
type LBMode int

const (
	// LBModeEn filters with LBen = max(LBEQ, LBEC) (the default).
	LBModeEn LBMode = iota
	// LBModeEQ filters with the query-envelope bound only.
	LBModeEQ
	// LBModeEC filters with the data-envelope bound only.
	LBModeEC
)

func (m LBMode) String() string {
	switch m {
	case LBModeEn:
		return "LBen"
	case LBModeEQ:
		return "LBEQ"
	case LBModeEC:
		return "LBEC"
	default:
		return fmt.Sprintf("LBMode(%d)", int(m))
	}
}

// Params configures a per-sensor SMiLer Index.
type Params struct {
	// Rho is the Sakoe-Chiba warping width ρ (paper default 8).
	Rho int
	// Omega is the disjoint/sliding window length ω (paper default 16).
	Omega int
	// ELV is the Ensemble Length Vector: the item query lengths,
	// strictly ascending. Every length must be ≥ 2ω−1 so each candidate
	// segment covers at least one disjoint window (DualMatch
	// requirement), and the largest defines the master query length.
	ELV []int
	// LB selects the filtering lower bound (default LBModeEn).
	LB LBMode
	// DisableEarlyAbandon verifies every filter survivor to its exact
	// distance: the cutoff is +Inf, so nothing is abandoned, dismissed by
	// the cascade or sealed by a tightened round. Results are identical
	// either way; the tests use it as the verify-everything reference.
	DisableEarlyAbandon bool
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.Rho < 0 {
		return fmt.Errorf("index: negative warping width %d", p.Rho)
	}
	if p.Omega < 2 {
		return fmt.Errorf("index: window length ω=%d must be ≥ 2", p.Omega)
	}
	if len(p.ELV) == 0 {
		return errors.New("index: empty ELV")
	}
	prev := 0
	for _, d := range p.ELV {
		if d < 2*p.Omega-1 {
			return fmt.Errorf("index: item query length %d < 2ω−1 = %d", d, 2*p.Omega-1)
		}
		if d <= prev {
			return errors.New("index: ELV must be strictly ascending")
		}
		prev = d
	}
	if p.LB < LBModeEn || p.LB > LBModeEC {
		return fmt.Errorf("index: unknown LB mode %d", p.LB)
	}
	return nil
}

// DefaultParams returns the paper's default configuration (Table 2):
// ρ=8, ω=16, ELV={32,64,96}.
func DefaultParams() Params {
	return Params{Rho: 8, Omega: 16, ELV: []int{32, 64, 96}}
}

// Index is the per-sensor SMiLer Index. It is not safe for concurrent
// use; in a multi-sensor deployment each sensor owns one Index (the
// paper scales out by creating one index per sensor and invoking more
// blocks).
type Index struct {
	dev *gpusim.Device
	p   Params

	c    []float64 // full history of the sensor (normalized upstream)
	dmax int       // master query length = max(ELV)
	nSW  int       // number of sliding windows = dmax − ω + 1
	// finite records that no value of c is NaN or ±Inf, the lane
	// kernel's precondition (see lanes).
	finite bool

	// The window level (everything down to the master-query envelope)
	// is a lazily maintained view of c[:synced]: Advance appends to c,
	// Sync brings the view up to len(c). Until built is set — by the
	// first Sync, and again after a failed one — there is no view, and
	// synced only remembers where the history stood when the index was
	// created or last in step.
	synced int
	built  bool

	// Disjoint windows. dwEnvU/dwEnvL[rω : (r+1)ω] hold the envelope of
	// DW_r computed with full-series context (a superset envelope, so the
	// bounds stay valid; see Theorem 4.3's proof which drops boundary
	// terms), rounded outward to float32 (up32, down32), so each stored
	// envelope contains the exact one. The final column's context is
	// refreshed as points arrive until ρ points of right context exist.
	nDW          int
	dwEnvU       []float32
	dwEnvL       []float32
	dwCtxPending []int // DW indices whose right context is incomplete

	// Window-level posting lists in a ring of physical rows; logical
	// sliding window b (offset from the right end of MQ) lives at
	// physical slot (cursor+b) mod nSW. postEQ[slot][r] = LBEQ(SW_b,
	// DW_r), postEC likewise, each rounded down to float32 (see sum32):
	// the index reads them only as lower bounds ahead of an exact DTW
	// check, so a smaller stored value keeps every answer and halves the
	// planes.
	postEQ [][]float32
	postEC [][]float32
	cursor int

	// Master-query envelope, refreshed by every Sync (length dmax).
	mqEnvU, mqEnvL []float64

	// prevNN remembers the last step's kNN positions per item length
	// for the continuous-threshold reuse (Section 4.3.3, Filtering).
	prevNN map[int][]int

	// Device residency is booked eagerly — New and Advance reserve what
	// the window level will occupy once built — so capacity errors
	// surface at registration and ingest, not inside a forecast. All of
	// it is booked against one buffer that Advance grows.
	buf      *gpusim.Buffer
	unbooked int64 // appended-history bytes not yet reflected on the device
	closed   bool

	firstRound int // size of the first verification round (see verify)

	stats SearchStats
}

// SearchStats accumulates instrumentation from the most recent Search
// call (used by the Table 3 / Fig. 8 experiments).
type SearchStats struct {
	// Candidates is the number of candidate segments whose lower bound
	// was produced by the group level, summed over item queries.
	Candidates int
	// Unfiltered is the number of candidates that survived the lower
	// bound filter and required DTW verification: the ones the banded
	// kernel ran on, threshold seeds included.
	Unfiltered int
	// Sealed is the number of filter survivors a verification round's
	// tightened cutoff ruled out before they were touched, and
	// CascadePruned the number the verify block's O(d) LB_Keogh cascade
	// dismissed instead of running the kernel (see verify). Filter
	// survivors = Unfiltered + Sealed + CascadePruned.
	Sealed        int
	CascadePruned int
	// Columns is the number of warping-matrix band columns the kernel
	// processed, seeds and abandoned candidates included — the unit the
	// cost model charges verification in.
	Columns int
	// VerifySimSeconds is the simulated GPU time spent in verification.
	VerifySimSeconds float64
	// LowerBoundSimSeconds is the simulated GPU time spent producing
	// lower bounds (group-level shift sums).
	LowerBoundSimSeconds float64
	// LowerBoundWallSeconds is the host wall-clock time of the
	// group-level lower-bound pass (what a real deployment's latency
	// histograms observe; the sim seconds above are the cost-model
	// view).
	LowerBoundWallSeconds float64
	// VerifyWallSeconds is the host wall-clock time of DTW
	// verification, summed over item queries.
	VerifyWallSeconds float64
	// PerItem splits the candidate counters per item query, ordered
	// like ELV. The fused verification launch processes every item
	// query's chunks in one grid, so the per-item split is carried here
	// rather than read between launches.
	PerItem []ItemStats

	// Verification-round counters: how the verifier scheduled its work
	// and, when a deadline stopped it, how good the best-so-far result
	// is (see verify).
	//
	// Rounds is the number of verification rounds run, zero when the
	// threshold seeds covered every survivor.
	Rounds int
	// VerifiedAtDeadline is the number of candidates resolved — verified
	// or dismissed — when the deadline fired (0 when the result is exact).
	VerifiedAtDeadline int
	// RoundWallSeconds holds per-round wall-clock durations, ordered.
	RoundWallSeconds []float64
	// Progressive is true when the context expired mid-verification and
	// the result is a best-so-far set that is not provably exact. It
	// stays false when every survivor was verified or every unverified
	// lower bound already exceeds the k-th best-so-far distance (sealed).
	Progressive bool
	// FracVerified, LBGap and ProbExact summarize a progressive result
	// across item queries (worst case over items); an exact result
	// reports 1, 0, 1. FracVerified is the fraction of the filter-surviving
	// candidates not yet sealed that were resolved. LBGap is the
	// relative gap between the smallest unverified lower bound and the
	// k-th best-so-far distance, in [0,1]: 0 means the bound already
	// seals the result, 1 means an unverified candidate could still be
	// arbitrarily closer. ProbExact is the ProS-style estimate of the
	// probability that the best-so-far set equals the exact set (up to
	// distance ties).
	FracVerified float64
	LBGap        float64
	ProbExact    float64

	// CatchupSteps is how many observations the window level was behind
	// when the search began (appended since the index was created or
	// last in step), Rebuilt whether the search had to build the window
	// level from scratch rather than advance it, and CatchupWallSeconds
	// the host wall-clock time either took (see Sync).
	CatchupSteps       int
	Rebuilt            bool
	CatchupWallSeconds float64
}

// ItemStats is the per-item-query slice of the search counters.
type ItemStats struct {
	// D is the item query length.
	D int
	// Candidates is the number of candidate segments with a finite
	// lower bound.
	Candidates int
	// Unfiltered is the number of candidates the DTW kernel ran on.
	Unfiltered int
}

// Pruned returns the number of candidates eliminated by a lower bound —
// the filter, a sealed round or the cascade — without a DTW
// verification.
func (s SearchStats) Pruned() int {
	p := s.Candidates - s.Unfiltered
	if p < 0 {
		return 0
	}
	return p
}

// New creates an index over the given history. The history must be at
// least max(ELV)+ω points long so that a master query and at least one
// disjoint window exist. The slice is copied and the device memory the
// index will occupy is booked; the window level itself is built by the
// first search (see Sync).
func New(dev *gpusim.Device, history []float64, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dmax := p.ELV[len(p.ELV)-1]
	if len(history) < dmax+p.Omega {
		return nil, fmt.Errorf("index: history length %d < d_max+ω = %d", len(history), dmax+p.Omega)
	}
	ix := &Index{
		dev:    dev,
		p:      p,
		c:      append([]float64(nil), history...),
		finite: !slices.ContainsFunc(history, nonFinite),
		dmax:   dmax,
		nSW:    dmax - p.Omega + 1,
		synced: len(history),
		prevNN: make(map[int][]int),

		firstRound: firstRound,
	}
	// Device residency: the history plus the window level. The window
	// level grows with the history; reserve for the current size and
	// extend on demand in Advance.
	buf, err := dev.Malloc("smiler-index", ix.MemoryFootprint().Total())
	if err != nil {
		return nil, err
	}
	ix.buf = buf
	return ix, nil
}

// Close releases the index's device memory. Further use is invalid.
func (ix *Index) Close() error {
	if ix.closed {
		return nil
	}
	ix.closed = true
	return ix.dev.Free(ix.buf)
}

// Len returns the current history length |C|.
func (ix *Index) Len() int { return len(ix.c) }

// Value returns the observation c_t.
func (ix *Index) Value(t int) float64 { return ix.c[t] }

// Params returns the index configuration.
func (ix *Index) Params() Params { return ix.p }

// Stats returns instrumentation from the most recent Search call.
func (ix *Index) Stats() SearchStats { return ix.stats }

// Footprint describes the index's device-memory consumption.
type Footprint struct {
	// HistoryBytes holds the raw series residing on the device, 8 B a
	// point.
	HistoryBytes int64
	// PostingBytes holds the two window-level posting planes
	// (LBEQ and LBEC, nSW×nDW float32 entries each).
	PostingBytes int64
	// EnvelopeBytes holds the disjoint windows' upper and lower
	// envelopes (ω float32 entries each per window).
	EnvelopeBytes int64
}

// Total returns the full per-sensor footprint in bytes.
func (f Footprint) Total() int64 { return f.HistoryBytes + f.PostingBytes + f.EnvelopeBytes }

// MemoryFootprint reports the index's device residency — the quantity
// Fig. 12(c)'s sensors-per-GPU capacity is derived from. It is a
// function of the history length alone, whether or not the window level
// has been built yet.
func (ix *Index) MemoryFootprint() Footprint {
	nDW := int64(len(ix.c) / ix.p.Omega)
	return Footprint{
		HistoryBytes:  int64(8 * len(ix.c)),
		PostingBytes:  2 * levelEntryBytes * int64(ix.nSW) * nDW,
		EnvelopeBytes: 2 * levelEntryBytes * int64(ix.p.Omega) * nDW,
	}
}

// levelEntryBytes is the size of one stored window-level value: a
// posting-list entry or an envelope point, both float32.
const levelEntryBytes = 4

// sum32 returns the largest float32 that is ≤ x, for a sum of squares
// x ≥ 0 (or NaN, which stays NaN): the rounding of every stored
// posting-list entry. float32(x) rounds to nearest; where that lands
// above x it is positive, so the float32 one below it is one less in
// its bits (+Inf, for an x above float32 range, steps to MaxFloat32).
// A float64 sum of values no larger than the exact terms is no larger
// than the exact sum, so a group-level bound shift-summed from these
// entries never exceeds the one summed from float64 entries. It runs
// once per posting entry, so it is written to inline and to compile
// without a branch.
func sum32(x float64) float32 {
	b := math.Float32bits(float32(x))
	if float64(math.Float32frombits(b)) > x {
		b--
	}
	return math.Float32frombits(b)
}

// down32 returns the largest float32 that is ≤ x, of any sign, the
// rounding of a disjoint window's lower envelope: float32(x) rounds to
// nearest, so where that lands above x it steps one ulp down. NaN stays
// NaN.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// up32 returns the smallest float32 that is ≥ x, the rounding of a
// disjoint window's upper envelope. An envelope widened either way can
// only shrink each LBEC term. NaN stays NaN.
func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// History returns a copy of the full indexed history.
func (ix *Index) History() []float64 {
	return append([]float64(nil), ix.c...)
}

// HistoryView returns the indexed history itself, not a copy: valid
// until the next Advance, and not to be written.
func (ix *Index) HistoryView() []float64 { return ix.c }

// MasterQuery returns a copy of the current master query (the last
// d_max points of the history).
func (ix *Index) MasterQuery() []float64 {
	return append([]float64(nil), ix.c[len(ix.c)-ix.dmax:]...)
}

// slot maps a logical sliding-window offset b to its physical ring row.
func (ix *Index) slot(b int) int {
	return (ix.cursor + b) % ix.nSW
}

// swStart returns the start position, within the history, of the
// sliding window at logical offset b: it covers c[swStart : swStart+ω].
func (ix *Index) swStart(b int) int {
	return len(ix.c) - b - ix.p.Omega
}

// computeDWEnvelope (re)computes the envelope of disjoint window r with
// full-series context and tracks whether its right context is complete.
func (ix *Index) computeDWEnvelope(r int) {
	omega, rho := ix.p.Omega, ix.p.Rho
	start := r * omega
	u := ix.dwEnvU[start : start+omega]
	l := ix.dwEnvL[start : start+omega]
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
		u[i] = up32(mx)
		l[i] = down32(mn)
	}
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
func (ix *Index) refreshMQEnvelope() {
	mq := ix.c[len(ix.c)-ix.dmax:]
	env := dtw.NewEnvelope(mq, ix.p.Rho)
	ix.mqEnvU, ix.mqEnvL = env.Upper, env.Lower
}

// swEnvelope returns the envelope of the sliding window at logical
// offset b, sliced from the master-query envelope so neighbouring
// context inside MQ is honoured.
func (ix *Index) swEnvelope(b int) (u, l []float64) {
	// MQ spans history [len−dmax, len); the window spans [swStart,
	// swStart+ω); within MQ coordinates it starts at dmax − b − ω.
	off := ix.dmax - b - ix.p.Omega
	return ix.mqEnvU[off : off+ix.p.Omega], ix.mqEnvL[off : off+ix.p.Omega]
}

// fillPostingRow computes the posting list of the sliding window at
// logical offset b against disjoint windows [rLo, rHi) into its
// physical slot, charging blk for the work. When eqOnly is true only
// the LBEQ half is recomputed (the envelope-refresh path of Remark 1).
// The sums run in float64 and are stored rounded down (sum32).
func (ix *Index) fillPostingRow(blk *gpusim.Block, b, rLo, rHi int, eqOnly bool) {
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
		envU, envL := ix.dwEnvU[dwLo:dwLo+omega], ix.dwEnvL[dwLo:dwLo+omega]
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
				if q, u := sw[i], float64(envU[i]); q > u {
					d := q - u
					sumEC += d * d
				} else if l := float64(envL[i]); q < l {
					d := q - l
					sumEC += d * d
				}
			}
		}
		eq[r] = sum32(sumEQ)
		if !eqOnly {
			ec[r] = sum32(sumEC)
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
func (ix *Index) rebuildWindowLevel() error {
	ix.cursor = 0
	return ix.dev.Launch(ix.nSW, func(blk *gpusim.Block) error {
		ix.fillPostingRow(blk, blk.ID, 0, ix.nDW, false)
		return nil
	})
}

// growHeadroom is the spare capacity, in disjoint windows, that a
// reallocated table of the window level is given: at ω observations per
// window it spaces reallocations growHeadroom·ω observations apart.
const growHeadroom = 4

// grow extends s to length n; the index's tables never shrink, so the
// new slots are zero. When it must reallocate it asks for n+spare,
// where append would ask for a multiple of the old capacity. The sensors
// of a deployment are registered together and fed in step, so their
// tables fill up on the same observation: with append, resident memory
// climbs by a quarter to a half of everything the index holds in one
// step, and a process that ingests or forecasts faster gets there
// sooner.
func grow[T any](s []T, n, spare int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, n+spare)
	copy(out, s)
	return out
}

// growPostingRows extends every physical posting row (allocating the
// ring on first use) with slots for newly completed disjoint windows.
func (ix *Index) growPostingRows() {
	if ix.postEQ == nil {
		ix.postEQ = make([][]float32, ix.nSW)
		ix.postEC = make([][]float32, ix.nSW)
	}
	growPlane(ix.postEQ, ix.nDW)
	growPlane(ix.postEC, ix.nDW)
}

// growPlane extends every row of a posting plane to n entries. The rows
// all have the same length, so they share one backing array, row s at
// s·stride, and a plane is one allocation: the heap it takes is the
// bytes MemoryFootprint counts, where nSW separate rows would each be
// rounded up to an allocator size class (18% more at 16,384 points).
// When the rows outgrow the stride, the plane is reallocated with
// growHeadroom spare windows per row, as grow does.
func growPlane(rows [][]float32, n int) {
	if n <= cap(rows[0]) {
		for s := range rows {
			rows[s] = rows[s][:n]
		}
		return
	}
	stride := n + growHeadroom
	backing := make([]float32, len(rows)*stride)
	for s, old := range rows {
		rows[s] = backing[s*stride : s*stride+n : (s+1)*stride]
		copy(rows[s], old)
	}
}

// extendDWColumns fills posting-list entries for newly completed
// disjoint windows [oldNDW, nDW) across sliding windows [bLo, nSW).
func (ix *Index) extendDWColumns(oldNDW, bLo int) error {
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
func (ix *Index) refreshPendingDWColumns() error {
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

// Advance appends a new observation to the history. The window level
// is not touched — the next search brings it up to date (see Sync) — but
// the device memory the observation will occupy there is booked now,
// one grow of the index's buffer per completed disjoint window, so an
// index that cannot grow refuses the observation here. A refused
// observation leaves the index unchanged.
func (ix *Index) Advance(obs float64) error {
	if ix.closed {
		return errors.New("index: closed")
	}
	unbooked := ix.unbooked + 8 // the appended observation itself
	if omega := ix.p.Omega; (len(ix.c)+1)/omega > len(ix.c)/omega {
		// Book the accumulated history bytes plus the new window's
		// posting-plane column and envelopes.
		if err := ix.dev.Grow(ix.buf, unbooked+2*levelEntryBytes*int64(ix.nSW+omega)); err != nil {
			return err
		}
		unbooked = 0
	}
	ix.unbooked = unbooked
	// The history is appended to for the life of the sensor, so unlike
	// the per-window tables it keeps amortized-constant growth — at a
	// sixteenth of its length, where append takes a quarter and rounds up
	// to a size class — with growHeadroom windows as the floor.
	n := len(ix.c)
	ix.c = grow(ix.c, n+1, max(growHeadroom*ix.p.Omega, n/16))
	ix.c[n] = obs
	ix.finite = ix.finite && !nonFinite(obs)
	return nil
}

func nonFinite(v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }

// lanes reports whether verification may run dtw.DistanceLanes: on
// amd64, over a history with no NaN or ±Inf. The query and every
// candidate are segments of the history, and on finite inputs the lane
// kernel returns the scalar kernel's bits; anywhere else the scalar
// kernel runs alone.
func (ix *Index) lanes() bool { return dtw.LaneKernel && ix.finite }

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
func (ix *Index) Sync() error {
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
	omega := ix.p.Omega
	ix.nDW = len(ix.c) / omega
	ix.dwEnvU = grow(ix.dwEnvU, ix.nDW*omega, growHeadroom*omega)
	ix.dwEnvL = grow(ix.dwEnvL, ix.nDW*omega, growHeadroom*omega)
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

// AdvanceRebuild appends a new observation and rebuilds the window
// level from scratch, dropping the threshold seeds too — the non-reuse
// baseline for the continuous-reuse ablation benchmark.
func (ix *Index) AdvanceRebuild(obs float64) error {
	if err := ix.Advance(obs); err != nil {
		return err
	}
	ix.built = false
	ix.prevNN = make(map[int][]int)
	return ix.Sync()
}
