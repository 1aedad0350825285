package index

import (
	"math/rand"
	"testing"
)

// TestEarlyAbandonAB runs the same randomized continuous-prediction
// trace through two indexes that differ only in DisableEarlyAbandon and
// requires bit-identical kNN sets at every step: the cutoff — abandoning,
// the cascade, tightening and sealing all hang off it — is an
// exactness-preserving optimization, never a result change.
func TestEarlyAbandonAB(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		hist := randwalk(rng, 380)
		pOn := smallParams()
		pOff := smallParams()
		pOff.DisableEarlyAbandon = true

		ixOn, err := New(testDevice(t), hist, pOn)
		if err != nil {
			t.Fatal(err)
		}
		defer ixOn.Close()
		ixOff, err := New(testDevice(t), hist, pOff)
		if err != nil {
			t.Fatal(err)
		}
		defer ixOff.Close()

		for step := 0; step < 12; step++ {
			k := 1 + rng.Intn(8)
			h := 1 + rng.Intn(4)
			on, err := ixOn.Search(k, h)
			if err != nil {
				t.Fatalf("seed %d step %d: abandon search: %v", seed, step, err)
			}
			off, err := ixOff.Search(k, h)
			if err != nil {
				t.Fatalf("seed %d step %d: plain search: %v", seed, step, err)
			}
			if len(on) != len(off) {
				t.Fatalf("seed %d step %d: %d vs %d item results", seed, step, len(on), len(off))
			}
			for i := range on {
				a, b := on[i], off[i]
				if a.D != b.D || len(a.Neighbors) != len(b.Neighbors) {
					t.Fatalf("seed %d step %d item %d: shape mismatch %+v vs %+v", seed, step, i, a, b)
				}
				for j := range a.Neighbors {
					if a.Neighbors[j] != b.Neighbors[j] {
						t.Fatalf("seed %d step %d item %d nb %d: %+v vs %+v",
							seed, step, i, j, a.Neighbors[j], b.Neighbors[j])
					}
				}
			}
			// Without a cutoff every filter survivor is verified; with one,
			// the same survivors are verified, sealed or dismissed.
			son, soff := ixOn.Stats(), ixOff.Stats()
			if soff.Sealed != 0 || soff.CascadePruned != 0 {
				t.Fatalf("seed %d step %d: DisableEarlyAbandon sealed %d and dismissed %d survivors", seed, step, soff.Sealed, soff.CascadePruned)
			}
			if son.Unfiltered > soff.Unfiltered || son.Unfiltered+son.Sealed+son.CascadePruned != soff.Unfiltered {
				t.Fatalf("seed %d step %d: %d verified + %d sealed + %d dismissed with the cutoff, %d filter survivors without — the filter must not change",
					seed, step, son.Unfiltered, son.Sealed, son.CascadePruned, soff.Unfiltered)
			}
			next := rng.NormFloat64() * 0.3
			if err := ixOn.Advance(next); err != nil {
				t.Fatal(err)
			}
			if err := ixOff.Advance(next); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSearchMultiEarlyAbandonAB is the multi-horizon analogue.
func TestSearchMultiEarlyAbandonAB(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hist := randwalk(rng, 420)
	pOff := smallParams()
	pOff.DisableEarlyAbandon = true

	ixOn, err := New(testDevice(t), hist, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ixOn.Close()
	ixOff, err := New(testDevice(t), hist, pOff)
	if err != nil {
		t.Fatal(err)
	}
	defer ixOff.Close()

	hs := []int{1, 3, 6}
	for step := 0; step < 8; step++ {
		on, err := ixOn.SearchMulti(5, hs)
		if err != nil {
			t.Fatal(err)
		}
		off, err := ixOff.SearchMulti(5, hs)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			a, b := on[h], off[h]
			if len(a) != len(b) {
				t.Fatalf("step %d h=%d: %d vs %d items", step, h, len(a), len(b))
			}
			for i := range a {
				if a[i].D != b[i].D || len(a[i].Neighbors) != len(b[i].Neighbors) {
					t.Fatalf("step %d h=%d item %d: shape mismatch", step, h, i)
				}
				for j := range a[i].Neighbors {
					if a[i].Neighbors[j] != b[i].Neighbors[j] {
						t.Fatalf("step %d h=%d item %d nb %d: %+v vs %+v",
							step, h, i, j, a[i].Neighbors[j], b[i].Neighbors[j])
					}
				}
			}
		}
		next := rng.NormFloat64() * 0.3
		if err := ixOn.Advance(next); err != nil {
			t.Fatal(err)
		}
		if err := ixOff.Advance(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPerItemStats checks the per-item-query split of SearchStats: the
// per-item candidate and verification counts must sum to the global
// counters and carry the right item-query lengths.
func TestPerItemStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := smallParams()
	ix, err := New(testDevice(t), randwalk(rng, 400), p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(4, 2); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if len(st.PerItem) != len(p.ELV) {
		t.Fatalf("PerItem has %d entries, want %d", len(st.PerItem), len(p.ELV))
	}
	sumCand, sumUnf := 0, 0
	for i, it := range st.PerItem {
		if it.D != p.ELV[i] {
			t.Fatalf("PerItem[%d].D = %d, want %d", i, it.D, p.ELV[i])
		}
		if it.Unfiltered > it.Candidates {
			t.Fatalf("item %d: unfiltered %d > candidates %d", i, it.Unfiltered, it.Candidates)
		}
		sumCand += it.Candidates
		sumUnf += it.Unfiltered
	}
	if sumCand != st.Candidates {
		t.Fatalf("per-item candidates sum %d != global %d", sumCand, st.Candidates)
	}
	if sumUnf != st.Unfiltered {
		t.Fatalf("per-item unfiltered sum %d != global %d", sumUnf, st.Unfiltered)
	}
	if st.Candidates == 0 || st.Unfiltered == 0 {
		t.Fatal("expected nonzero candidate/verification work on a 400-point history")
	}
}
