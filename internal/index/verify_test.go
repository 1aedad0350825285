package index

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
)

// countdownCtx is a context whose Err() starts returning
// context.DeadlineExceeded after it has been called n times. Deadline
// checks in the search path are the only Err() callers, so the budget
// deterministically stages "the deadline fires after the N-th check" —
// no wall-clock flakiness.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// noise returns a white-noise history. Unlike a random walk its
// group-level lower bounds are loose, so most candidates survive the
// filter and staged verification spans several rounds.
func noise(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// bruteNeighbors is the oracle: banded DTW (the verifier's own
// compressed-matrix arithmetic, no filter, no abandoning) from the
// d-suffix of hist to every candidate whose h-step label exists: the k
// nearest, ascending by (distance, position).
func bruteNeighbors(t *testing.T, hist []float64, d, rho, k, h int) []Neighbor {
	t.Helper()
	query := hist[len(hist)-d:]
	scratch := dtw.NewCompressedScratch(rho)
	var all []Neighbor
	for pos := 0; pos <= len(hist)-d-h; pos++ {
		dist, err := dtw.DistanceCompressed(query, hist[pos:pos+d], rho, scratch)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Neighbor{T: pos, Dist: dist})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].T < all[j].T
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// tieHeavy returns point i of a history built to sit on every tie rule at
// once: five integer levels, so every cost, bound and distance is an
// exactly representable small integer, in a 16-point motif that repeats
// with one point nudged by a level in two periods of every three. The
// series is exactly periodic (48), so a query has many candidates at
// distance 0 — more than k — and many more at the same few small
// distances, with lower bounds that equal them.
func tieHeavy(i int) float64 {
	motif := [16]float64{0, 1, 2, 1, 0, -1, -2, -1, 0, 2, 0, -2, 1, 1, -1, -1}
	v := motif[i%16]
	switch {
	case i%48 == 16+5:
		v++
	case i%48 == 32+11:
		v--
	}
	return v
}

// sameWork asserts that two searches under one schedule did the same
// counted work — the counters feed index.verified_per_forecast and
// index.pruned_ratio — and both ran to an exact answer.
func sameWork(t *testing.T, what string, a, b SearchStats) {
	t.Helper()
	if a.Candidates != b.Candidates || a.Unfiltered != b.Unfiltered || a.Sealed != b.Sealed ||
		a.CascadePruned != b.CascadePruned || a.Columns != b.Columns || a.Rounds != b.Rounds || len(a.PerItem) != len(b.PerItem) {
		t.Fatalf("%s: work differs with and without a far deadline:\n%+v\n%+v", what, a, b)
	}
	for i := range a.PerItem {
		if a.PerItem[i] != b.PerItem[i] {
			t.Fatalf("%s item %d: %+v vs %+v", what, i, a.PerItem[i], b.PerItem[i])
		}
	}
	for _, st := range []SearchStats{a, b} {
		if st.Progressive || st.ProbExact != 1 || st.FracVerified != 1 || st.LBGap != 0 {
			t.Fatalf("%s: completed search reports quality %+v", what, st)
		}
	}
}

// The round schedule must not matter, and a deadline that never fires
// must change nothing at all. For Search and SearchMulti, over a
// continuous stream, with the default parameters, without early
// abandoning and with the single-envelope filter: the same index driven
// with no deadline and with a far-future one returns the same neighbours
// and distances bit for bit from the same rounds and the same counted
// work; so do indexes whose first round is forced to 1, 7 and every
// survivor, where rounds tighten and seal at different points; and all
// of them equal brute-force banded DTW. The fixtures include the one the former
// TestSearchMultiMatchesSingle used — Search(k,h) is SearchMulti(k,[h])[h]
// by construction —, a white-noise history whose survivors span several
// rounds, and the tie-heavy one, where many candidates sit exactly on the
// k-th distance and many bounds equal it.
func TestAnytimeNoDeadlineBitIdentical(t *testing.T) {
	type fixture struct {
		name  string
		hist  []float64
		k     int
		hs    []int
		steps int
	}
	ties := make([]float64, 500)
	for i := range ties {
		ties[i] = tieHeavy(i)
	}
	fixtures := []fixture{
		{"randwalk", randwalk(rand.New(rand.NewSource(7)), 420), 5, []int{3, 5}, 12},
		{"multi-single", randwalk(rand.New(rand.NewSource(20)), 400), 8, []int{1, 3, 7}, 1},
		{"noise", noise(rand.New(rand.NewSource(11)), 900), 5, []int{3}, 2},
		{"ties", ties, 5, []int{1, 3, 7}, 20},
	}
	variants := []struct {
		name  string
		tweak func(*Params)
	}{
		{"default", func(*Params) {}},
		{"no-abandon", func(p *Params) { p.DisableEarlyAbandon = true }},
		{"lbeq", func(p *Params) { p.LB = LBModeEQ }},
	}
	const everySurvivor = 1 << 30
	for _, fx := range fixtures {
		for _, v := range variants {
			t.Run(fx.name+"/"+v.name, func(t *testing.T) {
				p := smallParams()
				v.tweak(&p)
				hist := append([]float64(nil), fx.hist...)
				free := context.Background()
				far, cancel := context.WithDeadline(free, time.Now().Add(time.Hour))
				defer cancel()
				// ixs[0] is the reference; ixs[1] runs the same schedule under
				// a far deadline; the rest force other first rounds.
				ctxs := []context.Context{free, far, free, free, free}
				ixs := make([]*Index, len(ctxs))
				for i, first := range []int{firstRound, firstRound, 1, 7, everySurvivor} {
					ix, err := New(testDevice(t), hist, p)
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					ix.firstRound = first
					ixs[i] = ix
				}
				rng := rand.New(rand.NewSource(99))
				h, maxRounds, sealed, cascaded := fx.hs[0], 0, 0, 0
				for step := 0; step < fx.steps; step++ {
					// Every index answers the same two searches; each answer is
					// compared with the reference's and the reference's with the
					// oracle.
					var ref [2]any
					var refStats [2]SearchStats
					for n, ix := range ixs {
						single, err := ix.SearchCtx(ctxs[n], fx.k, h)
						if err != nil {
							t.Fatal(err)
						}
						st0 := ix.Stats()
						multi, err := ix.SearchMultiCtx(ctxs[n], fx.k, fx.hs)
						if err != nil {
							t.Fatal(err)
						}
						st1 := ix.Stats()
						if n == 0 {
							ref, refStats = [2]any{single, multi}, [2]SearchStats{st0, st1}
							maxRounds = max(maxRounds, st0.Rounds)
							sealed += st0.Sealed + st1.Sealed
							cascaded += st0.CascadePruned + st1.CascadePruned
							for i, d := range p.ELV {
								if want := bruteNeighbors(t, hist, d, p.Rho, fx.k, h); !sameNeighbors(single[i].Neighbors, want) {
									t.Fatalf("step %d d=%d: search %v != brute force %v", step, d, single[i].Neighbors, want)
								}
								for _, hh := range fx.hs {
									if want := bruteNeighbors(t, hist, d, p.Rho, fx.k, hh); !sameNeighbors(multi[hh][i].Neighbors, want) {
										t.Fatalf("step %d h=%d d=%d: multi %v != brute force %v", step, hh, d, multi[hh][i].Neighbors, want)
									}
								}
							}
							continue
						}
						if n == 1 {
							sameWork(t, "Search", refStats[0], st0)
							sameWork(t, "SearchMulti", refStats[1], st1)
						}
						for i, d := range p.ELV {
							if !sameNeighbors(ref[0].([]ItemResult)[i].Neighbors, single[i].Neighbors) {
								t.Fatalf("step %d d=%d: schedule %d search %v != reference %v", step, d, n, single[i].Neighbors, ref[0].([]ItemResult)[i].Neighbors)
							}
							for _, hh := range fx.hs {
								if !sameNeighbors(ref[1].(map[int][]ItemResult)[hh][i].Neighbors, multi[hh][i].Neighbors) {
									t.Fatalf("step %d h=%d d=%d: schedule %d multi differs from the reference", step, hh, d, n)
								}
							}
						}
					}

					obs := hist[len(hist)-1] + rng.NormFloat64()*0.3
					if fx.name == "ties" {
						obs = tieHeavy(len(hist))
					}
					hist = append(hist, obs)
					for _, ix := range ixs {
						if err := ix.Advance(obs); err != nil {
							t.Fatal(err)
						}
					}
				}
				if fx.name == "noise" && maxRounds < 2 {
					t.Fatalf("the noise fixture ran at most %d round(s): geometric rounds not exercised", maxRounds)
				}
				if pruning := !p.DisableEarlyAbandon; pruning != (sealed+cascaded > 0) && fx.steps > 1 {
					t.Fatalf("pruning=%t but %d survivors sealed and %d dismissed by the cascade", pruning, sealed, cascaded)
				}
			})
		}
	}
}

// Property test: under a staged deadline the progressive result for
// each item query is a valid best-so-far set — every returned neighbour
// carries its exact DTW distance, per-rank distances dominate the exact
// kNN set's (prog[i].Dist ≥ exact[i].Dist), any neighbour shared with
// the exact set has a bit-identical distance, and a run whose stats say
// "not progressive" (deadline never fired, or search sealed early) is
// exactly the exact set. Quality numbers must be sane, and a generous
// deadline must converge to exact.
func TestProgressiveStagedDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hist := noise(rng, 900)
	p := smallParams()
	exact, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}

	const k, h = 5, 3
	re, err := exact.Search(k, h)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the staged index too (no deadline) so both sides have the
	// same prevNN seeds going into the staged runs.
	if _, err := anyIx.Search(k, h); err != nil {
		t.Fatal(err)
	}

	sawProgressive := false
	for n := int64(0); n <= 24; n++ {
		ra, err := anyIx.SearchCtx(newCountdown(n), k, h)
		if err != nil {
			// The deadline fired during the lower-bound pass: that phase
			// has no best-so-far set, so erroring out is the contract.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget %d: unexpected error %v", n, err)
			}
			continue
		}
		st := anyIx.Stats()
		if st.Progressive {
			sawProgressive = true
		}
		if st.FracVerified < 0 || st.FracVerified > 1 || st.LBGap < 0 || st.LBGap > 1 || st.ProbExact < 0 || st.ProbExact > 1 {
			t.Fatalf("budget %d: quality out of range %+v", n, st)
		}
		for i := range re {
			ep := re[i].Neighbors
			pp := ra[i].Neighbors
			if !st.Progressive {
				if !sameNeighbors(ep, pp) {
					t.Fatalf("budget %d item %d: non-progressive result differs from exact", n, i)
				}
				continue
			}
			exactDist := make(map[int]float64, len(ep))
			for _, nb := range ep {
				exactDist[nb.T] = nb.Dist
			}
			for r, nb := range pp {
				if r < len(ep) && nb.Dist < ep[r].Dist {
					t.Fatalf("budget %d item %d rank %d: progressive dist %v beats exact %v", n, i, r, nb.Dist, ep[r].Dist)
				}
				if d, ok := exactDist[nb.T]; ok && d != nb.Dist {
					t.Fatalf("budget %d item %d T=%d: dist %v != exact %v", n, i, nb.T, nb.Dist, d)
				}
				if r > 0 && nb.Dist < pp[r-1].Dist {
					t.Fatalf("budget %d item %d: progressive set not sorted", n, i)
				}
			}
		}
	}
	if !sawProgressive {
		t.Fatal("no staged budget produced a progressive result")
	}

	// A huge budget never hits the deadline: bit-identical to exact.
	ra, err := anyIx.SearchCtx(newCountdown(1<<30), k, h)
	if err != nil {
		t.Fatal(err)
	}
	if anyIx.Stats().Progressive {
		t.Fatal("unlimited budget still marked progressive")
	}
	for i := range re {
		if !sameNeighbors(re[i].Neighbors, ra[i].Neighbors) {
			t.Fatalf("unlimited budget item %d differs from exact", i)
		}
	}
}

func TestEstimateProbExact(t *testing.T) {
	if got := estimateProbExact(0, 0, 0); got != 1 {
		t.Fatalf("no remaining risk must be certainty, got %v", got)
	}
	// More remaining at-risk candidates → lower probability.
	p1 := estimateProbExact(2, 100, 5)
	p2 := estimateProbExact(2, 100, 50)
	if !(p1 > p2) {
		t.Fatalf("probability not monotone in remaining: %v vs %v", p1, p2)
	}
	// Higher observed flip rate → lower probability.
	q1 := estimateProbExact(1, 100, 10)
	q2 := estimateProbExact(50, 100, 10)
	if !(q1 > q2) {
		t.Fatalf("probability not monotone in flip rate: %v vs %v", q1, q2)
	}
	// Degenerate total-flip history.
	if got := estimateProbExact(10, 8, 3); got < 0 || got > 1 {
		t.Fatalf("estimate out of range: %v", got)
	}
	for _, p := range []float64{p1, p2, q1, q2} {
		if p < 0 || p > 1 {
			t.Fatalf("estimate out of [0,1]: %v", p)
		}
	}
}

// The filter keeps the cascade's tie rule: a bound equal to τ, or above
// it by no more than rounding (dtw.Slack), survives; one beyond that, or
// outside every horizon's range, does not.
func TestKeepAllowsSlack(t *testing.T) {
	const tau = 4.0
	lbs := []float64{tau, dtw.Slack(tau), math.Nextafter(dtw.Slack(tau), 9), 1, math.NaN()}
	task := &verifyTask{lbs: lbs, filters: []horizonFilter{{maxT: 2, tau: tau}, {maxT: 4, tau: 0.5}}}
	for pos, want := range []bool{true, true, false, false, false} {
		if got := task.keep(pos); got != want {
			t.Errorf("keep(%d) with bound %v and τ %v = %v, want %v", pos, lbs[pos], tau, got, want)
		}
	}
}

// tighten's tie rules on a hand-built task: the cutoff becomes the k-th
// best distance itself, never less — a later candidate at exactly that
// distance may still take the place by position —, per horizon it is the
// horizon's own k-th distance and the largest of them rules, and the
// survivors dropped are exactly those whose bound exceeds dtw.Slack of
// the cutoff: a bound equal to the cutoff, or above it by no more than
// rounding, stays.
func TestTightenKeepsTies(t *testing.T) {
	const kth = 4.0
	lbs := []float64{0, 1, kth, kth, dtw.Slack(kth), math.Nextafter(dtw.Slack(kth), 9), 7, 9, 2, 3}
	task := &verifyTask{
		k:       2,
		lbs:     lbs,
		cutoff:  10,
		filters: []horizonFilter{{maxT: 9, tau: 10}, {maxT: 7, tau: 10}},
		order:   survivorsAt(lbs, 0, 1, 2, 3, 4, 5, 6, 7),
		next:    2,
		tops:    []topK{{k: 2, d: make([]float64, 0, 2)}, {k: 2, d: make([]float64, 0, 2)}},
	}
	// Positions 8 and 9 are only in the first horizon's range: its k-th
	// distance is 3, the second horizon's is 4, and 4 is the bar.
	for pos, dist := range map[int]float64{0: 1, 1: kth, 8: 2, 9: 3} {
		task.record(pos, dist)
	}
	if got := task.bar(); got != kth {
		t.Fatalf("bar = %v, want the larger of the two horizons' k-th distances, %v", got, kth)
	}
	task.tighten()
	if task.cutoff != kth {
		t.Fatalf("cutoff = %v, want exactly %v", task.cutoff, kth)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(positions(task.order), want) || task.sealed != 3 {
		t.Fatalf("after sealing order = %v (%d sealed), want %v (3 sealed)", positions(task.order), task.sealed, want)
	}
	// Not enough verified distances in one horizon: nothing may tighten.
	task.tops[1].d = task.tops[1].d[:1]
	task.cutoff = 10
	task.tighten()
	if task.cutoff != 10 || task.sealed != 3 {
		t.Fatalf("a horizon short of k distances tightened the cutoff to %v", task.cutoff)
	}
	// No cutoff: tighten is a no-op.
	other := &verifyTask{k: 2, cutoff: math.Inf(1), lbs: lbs, order: survivorsAt(lbs, 6, 7), tops: task.tops[:1], filters: task.filters[:1]}
	other.tighten()
	if !math.IsInf(other.cutoff, 1) || len(other.order) != 2 || other.sealed != 0 {
		t.Fatalf("tighten touched a task it must leave alone: %+v", other)
	}
}

// survivorsAt is the survivor order filter would build for these
// positions, in the order given.
func survivorsAt(lbs []float64, pos ...int) []survivor {
	order := make([]survivor, len(pos))
	for i, p := range pos {
		order[i] = survivor{lbs[p], p}
	}
	return order
}

// positions is the position sequence of a survivor order.
func positions(order []survivor) []int {
	pos := make([]int, len(order))
	for i, s := range order {
		pos[i] = s.pos
	}
	return pos
}

// parentOrder is the survivor sort filter ran before it sorted (bound,
// position) pairs, kept verbatim: positions, compared through t.lbs.
func parentOrder(t *verifyTask, order []int) []int {
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(t.lbs[a], t.lbs[b]), a-b)
	})
	return order
}

// filter's survivor order against parentOrder over the same survivors.
// Bounds are drawn from a handful of values — −0 beside +0, repeats,
// +Inf under an unbounded horizon — so most comparisons are ties that
// the positions break, and seeds take some positions out.
func TestSurvivorOrderMatchesParentComparator(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(34))
	values := []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2, 3, math.Inf(1)}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		lbs := make([]float64, n)
		for i := range lbs {
			lbs[i] = values[rng.Intn(len(values))]
		}
		task := &verifyTask{
			lbs:     lbs,
			k:       3,
			cutoff:  math.Inf(1),
			filters: []horizonFilter{{maxT: n - 1, tau: 2}, {maxT: n / 2, tau: math.Inf(1)}},
		}
		for range 5 {
			task.seeds = append(task.seeds, seedCand{t: rng.Intn(n), dist: rng.Float64()})
		}
		if err := dev.Launch(1, func(blk *gpusim.Block) error {
			task.filter(blk, 1, false)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var want []int
		for pos := range n {
			if task.keep(pos) && math.IsInf(task.dists[pos], 1) {
				want = append(want, pos)
			}
		}
		got := positions(task.order)
		task.release()
		if want = parentOrder(task, want); !slices.Equal(got, want) {
			t.Fatalf("trial %d: survivor order\n%v\nparent comparator\n%v", trial, got, want)
		}
		for i, s := range task.order {
			if math.Float64bits(s.lb) != math.Float64bits(lbs[s.pos]) {
				t.Fatalf("trial %d: survivor %d carries bound %v, position %d has %v", trial, i, s.lb, s.pos, lbs[s.pos])
			}
		}
	}
}

// What tightening does to a search under a deadline, against the same
// search without it (DisableEarlyAbandon: τ throughout, nothing sealed,
// nothing dismissed — the schedule every search ran before rounds could
// tighten). Both verify the same survivors in the same order and rounds,
// so for every budget: the tightened search has run no more rounds; when
// both were stopped it returns the very same best-so-far neighbours —
// what it abandons or dismisses was never going to be one — and has
// resolved at least as large a share of what is left to resolve; it is
// never progressive where the untightened one is exact; and "not
// progressive" still means the exact answer, ProbExact still a
// probability. Some budget must stop both searches mid-way, and some
// must show the point of it: the tightened search done in fewer rounds
// than the other needed.
func TestDeadlineTightenedVersusUntightened(t *testing.T) {
	// A noisy seasonal history: bounds loose enough that the survivors
	// span several rounds, informative enough that a tightened cutoff
	// seals a tail of them. Every budget starts from a fresh pair of
	// indexes, so τ comes from the k smallest bounds and is loose.
	rng := rand.New(rand.NewSource(11))
	hist := make([]float64, 900)
	for i := range hist {
		hist[i] = rng.NormFloat64() + 2*math.Sin(2*math.Pi*float64(i)/177)
	}
	const k, h = 5, 3
	loose := smallParams()
	loose.DisableEarlyAbandon = true
	fresh := func(p Params) *Index {
		ix, err := New(testDevice(t), hist, p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	exact, err := fresh(smallParams()).Search(k, h)
	if err != nil {
		t.Fatal(err)
	}
	bothStopped, doneSooner := 0, 0
	for n := int64(0); n <= 24; n++ {
		tight, plain := fresh(smallParams()), fresh(loose)
		rt, errT := tight.SearchCtx(newCountdown(n), k, h)
		rp, errP := plain.SearchCtx(newCountdown(n), k, h)
		if (errT != nil) != (errP != nil) {
			t.Fatalf("budget %d: tightened err %v, untightened err %v", n, errT, errP)
		}
		if errT != nil {
			if !errors.Is(errT, context.DeadlineExceeded) {
				t.Fatalf("budget %d: unexpected error %v", n, errT)
			}
			continue // the deadline fired during the lower-bound pass
		}
		st, sp := tight.Stats(), plain.Stats()
		if st.Rounds > sp.Rounds {
			t.Fatalf("budget %d: tightened ran %d rounds, untightened %d", n, st.Rounds, sp.Rounds)
		}
		if st.Progressive && !sp.Progressive {
			t.Fatalf("budget %d: tightened search progressive where the untightened one is exact", n)
		}
		if st.ProbExact < 0 || st.ProbExact > 1 || (!st.Progressive && st.ProbExact != 1) {
			t.Fatalf("budget %d: ProbExact %v, progressive %t", n, st.ProbExact, st.Progressive)
		}
		for i := range exact {
			switch {
			case !st.Progressive && !sameNeighbors(rt[i].Neighbors, exact[i].Neighbors):
				t.Fatalf("budget %d item %d: a search that is not progressive returned %v, exact is %v", n, i, rt[i].Neighbors, exact[i].Neighbors)
			case st.Progressive && sp.Progressive && !sameNeighbors(rt[i].Neighbors, rp[i].Neighbors):
				t.Fatalf("budget %d item %d: stopped after %d rounds both, tightened %v != untightened %v", n, i, st.Rounds, rt[i].Neighbors, rp[i].Neighbors)
			}
		}
		if st.Progressive && sp.Progressive {
			bothStopped++
			if st.FracVerified < sp.FracVerified {
				t.Fatalf("budget %d: tightened resolved %v of its survivors, untightened %v", n, st.FracVerified, sp.FracVerified)
			}
		}
		if !st.Progressive && st.Rounds < sp.Rounds {
			doneSooner++
		}
	}
	if bothStopped == 0 || doneSooner == 0 {
		t.Fatalf("budgets with both searches stopped: %d; with the tightened one done in fewer rounds: %d — want both kinds", bothStopped, doneSooner)
	}
}

// What the one schedule costs a search under a deadline, against the
// schedule such a search ran before (commit 5ab4894: first round one
// verifyChunk of 256 per item query, doubling, τ throughout — replayed
// here by forcing the first round and switching tightening off). Round
// for round the new schedule resolves a quarter of the old one's
// survivors, 64·(2^r − 1) against 256·(2^r − 1): stopped after the same
// number of rounds it is further from exact. What it guarantees instead
// is that two rounds later — 192 survivors per item query, less than the
// old first round — it has caught up: everything the old schedule had
// verified after r rounds is, after r+2, verified, dismissed or sealed,
// and a search the old schedule finished in r rounds is finished.
func TestDeadlineCatchesUpWithSingleChunkSchedule(t *testing.T) {
	hist := noise(rand.New(rand.NewSource(5)), 2600)
	const k, h = 5, 2
	old := smallParams()
	old.DisableEarlyAbandon = true
	// byRounds runs the search under every budget and keeps, per number of
	// rounds completed, how much was settled when the deadline fired; done
	// is the number of rounds an unhurried search takes.
	byRounds := func(p Params, first int) (settled map[int]int, done int) {
		settled = map[int]int{}
		for n := int64(0); ; n++ {
			ix, err := New(testDevice(t), hist, p)
			if err != nil {
				t.Fatal(err)
			}
			ix.firstRound = first
			_, err = ix.SearchCtx(newCountdown(n), k, h)
			st := ix.Stats()
			ix.Close()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				continue // fired during the lower-bound pass
			case err != nil:
				t.Fatal(err)
			case !st.Progressive:
				return settled, st.Rounds
			}
			settled[st.Rounds] = st.VerifiedAtDeadline + st.Sealed
		}
	}
	was, wasDone := byRounds(old, verifyChunk)
	now, nowDone := byRounds(smallParams(), firstRound)
	if len(was) < 2 {
		t.Fatalf("the old schedule was stopped at %d distinct rounds; the fixture must span several", len(was))
	}
	if nowDone > wasDone+2 {
		t.Fatalf("exact after %d rounds, the old schedule after %d: more than two rounds behind", nowDone, wasDone)
	}
	behind := false
	for r, n := range was {
		if got, stopped := now[r+2]; stopped && got < n {
			t.Fatalf("after %d rounds %d survivors settled; the old schedule had verified %d after %d", r+2, got, n, r)
		}
		if got, stopped := now[r]; stopped && got < n {
			behind = true
		}
	}
	if !behind {
		t.Fatal("the new schedule was never behind the old one round for round: the fixture does not show the cost this test documents")
	}
}

// The lane kernel's precondition is a finite history (see lanes): an
// index whose history holds ±Inf — from New or from Advance — verifies on
// the scalar kernel alone, and its answers still equal brute-force banded
// DTW. The non-finite values sit behind the query, so candidates over
// them are at distance +Inf and the k nearest are finite.
func TestNonFiniteHistoryRoutesToScalarKernel(t *testing.T) {
	p := smallParams()
	const k, h = 5, 2
	check := func(what string, ix *Index, hist []float64, lanes bool) {
		t.Helper()
		if got := ix.lanes(); got != (lanes && dtw.LaneKernel) {
			t.Fatalf("%s: lanes() = %t", what, got)
		}
		res, err := ix.Search(k, h)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range p.ELV {
			if want := bruteNeighbors(t, hist, d, p.Rho, k, h); !sameNeighbors(res[i].Neighbors, want) {
				t.Fatalf("%s d=%d: search %v != brute force %v", what, d, res[i].Neighbors, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	hist := noise(rng, 600)
	bad := slices.Clone(hist)
	bad[100], bad[250] = math.Inf(1), math.Inf(-1)
	for _, fx := range []struct {
		name  string
		hist  []float64
		lanes bool
	}{{"finite", hist, true}, {"±Inf from New", bad, false}} {
		ix, err := New(testDevice(t), fx.hist, p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		check(fx.name, ix, fx.hist, fx.lanes)
	}

	// From Advance: +Inf enters the finite index, then finite observations
	// carry it out of the query.
	ix, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	check("before Advance", ix, hist, true)
	grown := slices.Clone(hist)
	for step := 0; step < 2*p.ELV[len(p.ELV)-1]; step++ {
		obs := rng.NormFloat64()
		if step == 0 {
			obs = math.Inf(1)
		}
		grown = append(grown, obs)
		if err := ix.Advance(obs); err != nil {
			t.Fatal(err)
		}
	}
	check("+Inf from Advance", ix, grown, false)
}
