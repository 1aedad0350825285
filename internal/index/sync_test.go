package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smiler/internal/dtw"
	"smiler/internal/fault"
	"smiler/internal/gpusim"
	"smiler/internal/scan"
)

// checkLowerBounds asserts Theorem 4.3 on the index's current window
// level: every group-level bound is at most the true banded DTW between
// the item query and the candidate it bounds.
func checkLowerBounds(t *testing.T, ix *Index, h int) {
	t.Helper()
	lbs, err := ix.ComputeLowerBounds(h)
	if err != nil {
		t.Fatal(err)
	}
	hist, p := ix.History(), ix.Params()
	for i, d := range p.ELV {
		query := hist[len(hist)-d:]
		for tpos, lb := range lbs[i] {
			if math.IsInf(lb, 1) {
				continue
			}
			dist, err := dtw.Distance(query, hist[tpos:tpos+d], p.Rho)
			if err != nil {
				t.Fatal(err)
			}
			if lb > dist+1e-9*(1+dist) {
				t.Fatalf("d=%d t=%d: LBw %v > DTW %v", d, tpos, lb, dist)
			}
		}
	}
}

// sameResults requires two multi-horizon results to name the same
// neighbour positions at bit-equal distances.
func sameResults(t *testing.T, what string, got, want map[int][]ItemResult) {
	t.Helper()
	for h, items := range want {
		for i, item := range items {
			g := got[h][i].Neighbors
			if len(g) != len(item.Neighbors) {
				t.Fatalf("%s: h=%d d=%d: %d neighbours, want %d", what, h, item.D, len(g), len(item.Neighbors))
			}
			for j, nb := range item.Neighbors {
				if g[j].T != nb.T || math.Float64bits(g[j].Dist) != math.Float64bits(nb.Dist) {
					t.Fatalf("%s: h=%d d=%d neighbour %d: got (%d, %v), want (%d, %v)",
						what, h, item.D, j, g[j].T, g[j].Dist, nb.T, nb.Dist)
				}
			}
		}
	}
}

// One Sync over a gap of m observations must answer like m single-step
// syncs and like an index built fresh over the same history, and leave
// nothing but valid lower bounds behind — across gaps on both sides of
// every branch of Sync, start offsets that cross disjoint-window
// boundaries and the pending-context window, and with or without
// threshold seeds from an earlier search.
func TestSyncBatchedMatchesStepwiseAndFresh(t *testing.T) {
	base := smallParams()
	nSW := base.ELV[len(base.ELV)-1] - base.Omega + 1
	gaps := []int{1, 2, base.Rho, base.Rho + 1, base.Omega, base.Omega + 1,
		nSW - base.Rho - 1, nSW - base.Rho, nSW, 3 * nSW}
	variants := map[string]func(*Params){
		"default":         func(*Params) {},
		"no-abandon":      func(p *Params) { p.DisableEarlyAbandon = true },
		"single-envelope": func(p *Params) { p.LB = LBModeEQ },
	}
	const k = 6
	hs := []int{1, 4}
	dev := testDevice(t)
	all := randwalk(rand.New(rand.NewSource(60)), 420)
	for name, tweak := range variants {
		p := base
		tweak(&p)
		for _, start := range []int{300, 303, 306, 311} {
			for _, m := range gaps {
				for _, primed := range []bool{false, true} {
					what := fmt.Sprintf("%s start=%d m=%d primed=%t", name, start, m, primed)
					open := func(hist []float64) *Index {
						ix, err := New(dev, hist, p)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { ix.Close() })
						return ix
					}
					batched, stepwise := open(all[:start]), open(all[:start])
					for _, ix := range []*Index{batched, stepwise} {
						if err := ix.Sync(); err != nil {
							t.Fatal(err)
						}
						if primed {
							if _, err := ix.SearchMulti(k, hs); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, v := range all[start : start+m] {
						if err := batched.Advance(v); err != nil {
							t.Fatal(err)
						}
						if err := stepwise.Advance(v); err != nil {
							t.Fatal(err)
						}
						if err := stepwise.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					got, err := batched.SearchMulti(k, hs)
					if err != nil {
						t.Fatal(err)
					}
					if st := batched.Stats(); st.CatchupSteps != m || st.Rebuilt != (m+p.Rho >= nSW) {
						t.Fatalf("%s: catch-up stats %d steps rebuilt=%t", what, st.CatchupSteps, st.Rebuilt)
					}
					want, err := stepwise.SearchMulti(k, hs)
					if err != nil {
						t.Fatal(err)
					}
					if st := stepwise.Stats(); st.CatchupSteps != 0 || st.Rebuilt {
						t.Fatalf("%s: stepwise index was not in step: %+v", what, st)
					}
					sameResults(t, what+" batched vs stepwise", got, want)
					fresh, err := open(all[:start+m]).SearchMulti(k, hs)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, what+" batched vs fresh", got, fresh)
					checkLowerBounds(t, batched, hs[0])
					checkLowerBounds(t, stepwise, hs[0])
				}
			}
		}
	}
}

// Semi-lazy maintenance: creating an index and appending to it costs no
// device launch; the first search pays for the window level.
func TestAdvanceLaunchesNothing(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(61))
	before := dev.Launches()
	ix, err := New(dev, randwalk(rng, 300), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < 1000; i++ {
		if err := ix.Advance(rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Launches(); got != before {
		t.Fatalf("New + 1000 Advance ran %d launches, want none", got-before)
	}
	if _, err := ix.Search(4, 1); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); !st.Rebuilt || st.CatchupSteps != 1000 {
		t.Fatalf("first search stats: %+v, want a build 1000 steps behind", st)
	}
	if dev.Launches() == before {
		t.Fatal("the first search should have built the window level")
	}
}

// A Sync that fails part-way — at any of its launches — must not leave
// rows a later search would trust: the next search rebuilds from the
// history and answers like an undisturbed twin.
func TestFailedSyncHeals(t *testing.T) {
	dev := testDevice(t)
	p := smallParams()
	all := randwalk(rand.New(rand.NewSource(62)), 340)
	const warm, k = 300, 6
	hs := []int{2}
	// The gap completes a disjoint window (304) inside the pending-context
	// window, so the catch-up is three launches: rows, new columns,
	// pending columns. failAt=4 lands on the lower-bound launch instead.
	gap := all[warm : warm+6]
	for failAt := uint64(1); failAt <= 4; failAt++ {
		twin, err := New(dev, all[:warm], p)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(dev, all[:warm], p)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*Index{twin, ix} {
			if _, err := x.SearchMulti(k, hs); err != nil {
				t.Fatal(err)
			}
			for _, v := range gap {
				if err := x.Advance(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		in := fault.NewInjector(1)
		in.Set(fault.PointGPUSimLaunch, fault.Rule{Kind: fault.KindError, After: failAt, Once: true})
		fault.Arm(in)
		_, err = ix.SearchMulti(k, hs)
		fault.Disarm()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("failAt=%d: err = %v, want the injected launch fault", failAt, err)
		}
		want, err := twin.SearchMulti(k, hs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.SearchMulti(k, hs)
		if err != nil {
			t.Fatal(err)
		}
		if st := ix.Stats(); st.Rebuilt != (failAt <= 3) {
			t.Fatalf("failAt=%d: rebuilt=%t after the fault", failAt, st.Rebuilt)
		}
		sameResults(t, fmt.Sprintf("failAt=%d", failAt), got, want)
		checkLowerBounds(t, ix, hs[0])
		hist := ix.History()
		for i, d := range p.ELV {
			brute, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, k, hs[0])
			if err != nil {
				t.Fatal(err)
			}
			neighborsMatch(t, got[hs[0]][i].Neighbors, brute)
		}
		twin.Close()
		ix.Close()
	}
}

// An Advance the device refuses leaves the index exactly as it was:
// once memory is available again the stream continues and stays exact.
func TestRefusedAdvanceLeavesIndexUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := smallParams()
	all := randwalk(rng, 330)
	const warm = 300
	probe := testDevice(t)
	ixProbe, err := New(probe, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	footprint := probe.UsedBytes()
	ixProbe.Close()

	const hogBytes = 1 << 20
	cfg := gpusim.DefaultConfig()
	cfg.GlobalMemBytes = footprint + hogBytes + 64
	dev := gpusim.MustNewDevice(cfg)
	hog, err := dev.Malloc("hog", hogBytes)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(dev, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(4, 1); err != nil {
		t.Fatal(err)
	}
	next := warm
	for ; next < len(all); next++ {
		if err = ix.Advance(all[next]); err != nil {
			break
		}
	}
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory while the hog holds the headroom", err)
	}
	if ix.Len() != next {
		t.Fatalf("refused Advance changed the history: len %d, want %d", ix.Len(), next)
	}
	used := dev.UsedBytes()
	if err := ix.Advance(all[next]); !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("retry err = %v, want ErrOutOfMemory again", err)
	}
	if dev.UsedBytes() != used || ix.Len() != next {
		t.Fatal("a refused Advance must book nothing and append nothing")
	}
	if err := dev.Free(hog); err != nil {
		t.Fatal(err)
	}
	for ; next < len(all); next++ {
		if err := ix.Advance(all[next]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Search(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p.ELV {
		want, err := scan.BruteKNN(all, all[len(all)-d:], p.Rho, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		neighborsMatch(t, res[i].Neighbors, want)
	}
	if fp := ix.MemoryFootprint().Total(); dev.UsedBytes() < fp-int64(8*p.Omega) {
		t.Fatalf("device usage %d fell behind footprint %d", dev.UsedBytes(), fp)
	}
}

// hostPostingCap is the capacity, in words, the host holds for the two
// posting planes.
func hostPostingCap(ix *Index) int {
	words := 0
	for s := range ix.postEQ {
		words += cap(ix.postEQ[s]) + cap(ix.postEC[s])
	}
	return words
}

// Completing a disjoint window grows every posting row of the sensor at
// once, so the rows must grow by the new columns plus a constant
// headroom — not by a factor of the history behind them, which is what
// append does to a full slice.
func TestPostingRowsGrowByNewColumns(t *testing.T) {
	p := DefaultParams()
	nSW := p.ELV[len(p.ELV)-1] - p.Omega + 1
	const newWindows = growHeadroom + 1 // one more than a fresh row has room for
	var growth []int
	for _, windows := range []int{64, 128, 512} {
		dev := testDevice(t)
		rng := rand.New(rand.NewSource(65))
		ix, err := New(dev, randwalk(rng, windows*p.Omega), p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if _, err := ix.Search(4, 1); err != nil {
			t.Fatal(err)
		}
		before := hostPostingCap(ix)
		for i := 0; i < newWindows*p.Omega; i++ {
			if err := ix.Advance(rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
			if (i+1)%p.Omega == 0 {
				if _, err := ix.Search(4, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := hostPostingCap(ix) - before
		if limit := 2 * nSW * (newWindows + growHeadroom); got <= 0 || got > limit {
			t.Errorf("%d-window history: posting capacity grew %d words over %d new windows, want (0, %d]", windows, got, newWindows, limit)
		}
		growth = append(growth, got)
	}
	for _, g := range growth[1:] {
		if g != growth[0] {
			t.Fatalf("posting capacity growth depends on history length: %v words", growth)
		}
	}
}
