package index

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"smiler/internal/dtw"
)

// countdownCtx is a context whose Err() starts returning
// context.DeadlineExceeded after it has been called n times. Deadline
// checks in the search path are the only Err() callers, so the budget
// deterministically stages "the deadline fires after the N-th check" —
// no wall-clock flakiness. It reports a Deadline, so the verifier
// stages geometric rounds for it as for any real deadline.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) {
	return time.Now().Add(time.Hour), true
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
// d-suffix of hist to every candidate whose h-step label exists,
// ascending by (distance, position). within < 0 keeps the k nearest;
// otherwise everything at distance ≤ within.
func bruteNeighbors(t *testing.T, hist []float64, d, rho, k, h int, within float64) []Neighbor {
	t.Helper()
	query := hist[len(hist)-d:]
	scratch := dtw.NewCompressedScratch(rho)
	var all []Neighbor
	for pos := 0; pos <= len(hist)-d-h; pos++ {
		dist, err := dtw.DistanceCompressed(query, hist[pos:pos+d], rho, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if within < 0 || dist <= within {
			all = append(all, Neighbor{T: pos, Dist: dist})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].T < all[j].T
	})
	if within < 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// sameWork asserts the schedule-independent counters: they feed
// index.verified_per_forecast and index.pruned_ratio.
func sameWork(t *testing.T, what string, a, b SearchStats) {
	t.Helper()
	if a.Candidates != b.Candidates || a.Unfiltered != b.Unfiltered || len(a.PerItem) != len(b.PerItem) {
		t.Fatalf("%s: work differs across schedules: %d/%d vs %d/%d", what, a.Candidates, a.Unfiltered, b.Candidates, b.Unfiltered)
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

// The round schedule must not matter. For Search, SearchMulti and
// SearchRange, with and without DisableEarlyAbandon and MinSeparation,
// over a continuous stream: a deadline-free context (one round) and a
// far-future real deadline (geometric rounds) return the same
// neighbours and distances bit for bit and do the same counted work —
// and both equal brute-force banded DTW. (MinSeparation selects
// greedily among the unfiltered candidates only, by design, so there
// the two schedules are compared with each other but not with the
// oracle.) The fixtures include the one the former
// TestSearchMultiMatchesSingle used — Search(k,h) is now
// SearchMulti(k,[h])[h] by construction — and a white-noise history
// whose survivors span several staged rounds.
func TestAnytimeNoDeadlineBitIdentical(t *testing.T) {
	type fixture struct {
		name  string
		hist  []float64
		k     int
		hs    []int
		steps int
	}
	fixtures := []fixture{
		{"randwalk", randwalk(rand.New(rand.NewSource(7)), 420), 5, []int{3, 5}, 12},
		{"multi-single", randwalk(rand.New(rand.NewSource(20)), 400), 8, []int{1, 3, 7}, 1},
		{"noise", noise(rand.New(rand.NewSource(11)), 900), 5, []int{3}, 2},
	}
	variants := []struct {
		name  string
		tweak func(*Params)
	}{
		{"default", func(*Params) {}},
		{"no-abandon", func(p *Params) { p.DisableEarlyAbandon = true }},
		{"separated", func(p *Params) { p.MinSeparation = 10 }},
	}
	for _, fx := range fixtures {
		for _, v := range variants {
			t.Run(fx.name+"/"+v.name, func(t *testing.T) {
				p := smallParams()
				v.tweak(&p)
				oracle := p.MinSeparation <= 1
				hist := append([]float64(nil), fx.hist...)
				one, err := New(testDevice(t), hist, p)
				if err != nil {
					t.Fatal(err)
				}
				defer one.Close()
				staged, err := New(testDevice(t), hist, p)
				if err != nil {
					t.Fatal(err)
				}
				defer staged.Close()
				free := context.Background()
				far, cancel := context.WithDeadline(free, time.Now().Add(time.Hour))
				defer cancel()
				rng := rand.New(rand.NewSource(99))
				h, maxRounds := fx.hs[0], 0
				for step := 0; step < fx.steps; step++ {
					ra, err := one.SearchCtx(free, fx.k, h)
					if err != nil {
						t.Fatal(err)
					}
					sa := one.Stats()
					rb, err := staged.SearchCtx(far, fx.k, h)
					if err != nil {
						t.Fatal(err)
					}
					sb := staged.Stats()
					sameWork(t, "Search", sa, sb)
					if sa.Rounds > 1 {
						t.Fatalf("step %d: deadline-free search ran %d rounds, want at most 1", step, sa.Rounds)
					}
					maxRounds = max(maxRounds, sb.Rounds)
					for i, d := range p.ELV {
						if !sameNeighbors(ra[i].Neighbors, rb[i].Neighbors) {
							t.Fatalf("step %d d=%d: one round %v != staged %v", step, d, ra[i].Neighbors, rb[i].Neighbors)
						}
						if want := bruteNeighbors(t, hist, d, p.Rho, fx.k, h, -1); oracle && !sameNeighbors(ra[i].Neighbors, want) {
							t.Fatalf("step %d d=%d: search %v != brute force %v", step, d, ra[i].Neighbors, want)
						}
					}

					ma, err := one.SearchMultiCtx(free, fx.k, fx.hs)
					if err != nil {
						t.Fatal(err)
					}
					sa = one.Stats()
					mb, err := staged.SearchMultiCtx(far, fx.k, fx.hs)
					if err != nil {
						t.Fatal(err)
					}
					sameWork(t, "SearchMulti", sa, staged.Stats())
					for _, hh := range fx.hs {
						for i, d := range p.ELV {
							if !sameNeighbors(ma[hh][i].Neighbors, mb[hh][i].Neighbors) {
								t.Fatalf("step %d h=%d d=%d: multi differs across schedules", step, hh, d)
							}
							if want := bruteNeighbors(t, hist, d, p.Rho, fx.k, hh, -1); oracle && !sameNeighbors(ma[hh][i].Neighbors, want) {
								t.Fatalf("step %d h=%d d=%d: multi %v != brute force %v", step, hh, d, ma[hh][i].Neighbors, want)
							}
						}
					}

					eps := ra[0].Neighbors[len(ra[0].Neighbors)-1].Dist * 1.5
					ga, err := one.SearchRangeCtx(free, eps, h)
					if err != nil {
						t.Fatal(err)
					}
					sa = one.Stats()
					gb, err := staged.SearchRangeCtx(far, eps, h)
					if err != nil {
						t.Fatal(err)
					}
					sameWork(t, "SearchRange", sa, staged.Stats())
					for i, d := range p.ELV {
						if !sameNeighbors(ga[i].Neighbors, gb[i].Neighbors) {
							t.Fatalf("step %d d=%d: range differs across schedules", step, d)
						}
						// Range selection ignores MinSeparation: the oracle always applies.
						if want := bruteNeighbors(t, hist, d, p.Rho, 0, h, eps); !sameNeighbors(ga[i].Neighbors, want) {
							t.Fatalf("step %d d=%d: range %v != brute force %v", step, d, ga[i].Neighbors, want)
						}
					}

					obs := hist[len(hist)-1] + rng.NormFloat64()*0.3
					hist = append(hist, obs)
					if err := one.Advance(obs); err != nil {
						t.Fatal(err)
					}
					if err := staged.Advance(obs); err != nil {
						t.Fatal(err)
					}
				}
				if fx.name == "noise" && maxRounds < 2 {
					t.Fatalf("staged schedule ran at most %d round(s) on the noise fixture: geometric rounds not exercised", maxRounds)
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

// Progressive SearchRange under a staged deadline returns a subset of
// the exact in-range set with bit-identical distances.
func TestProgressiveRangeSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	hist := randwalk(rng, 500)
	p := smallParams()
	exact, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}

	const h = 3
	re, err := exact.Search(5, h)
	if err != nil {
		t.Fatal(err)
	}
	eps := re[0].Neighbors[len(re[0].Neighbors)-1].Dist * 2
	ge, err := exact.SearchRange(eps, h)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 16; n++ {
		ga, err := anyIx.SearchRangeCtx(newCountdown(n), eps, h)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget %d: unexpected error %v", n, err)
			}
			continue
		}
		for i := range ge {
			exactDist := make(map[int]float64, len(ge[i].Neighbors))
			for _, nb := range ge[i].Neighbors {
				exactDist[nb.T] = nb.Dist
			}
			for _, nb := range ga[i].Neighbors {
				d, ok := exactDist[nb.T]
				if !ok {
					t.Fatalf("budget %d item %d: progressive returned T=%d outside exact range set", n, i, nb.T)
				}
				if d != nb.Dist {
					t.Fatalf("budget %d item %d T=%d: dist %v != exact %v", n, i, nb.T, nb.Dist, d)
				}
			}
			if !anyIx.Stats().Progressive && len(ga[i].Neighbors) != len(ge[i].Neighbors) {
				t.Fatalf("budget %d item %d: non-progressive range result incomplete", n, i)
			}
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
