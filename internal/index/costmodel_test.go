package index

import (
	"math/rand"
	"testing"

	"smiler/internal/datasets"
	"smiler/internal/gpusim"
)

// The simulator's numbers are part of the index's contract: every charge
// in verify.go/search.go is derived from what the bounds and the DTW
// kernel report (points read, columns processed, candidates verified), so
// a change that altered a returned distance, an abandon column, a filter
// or cascade decision or a round boundary would move them. Two fixed
// scripts are replayed and compared with recorded values:
//
//   - "mixed": a seeded 1,500-point random walk, twelve observe/search
//     steps mixing single-horizon searches at h = 1 and h = 2 with
//     multi-horizon ones at the paper's default parameters. Its searches
//     have few survivors and barely reach a second round.
//   - "road": the repository benchmark's traffic on one sensor — a
//     2,048-point ROAD history, k = 32, then 24 observe/forecast steps
//     whose horizons walk 1,1,3,3,6,6 — where rounds tighten, seal and
//     dismiss in earnest.
//
// The "road" values were recorded when the verifier got its tightening
// rounds and LB_Keogh cascade (PR 22). The "mixed" script's h = 2 steps
// were ε-range searches until the range search was deleted; its values
// were then measured by running this script, with Search(8, 2) in their
// place, on the commit before the deletion (8695533), so they pin that
// the deletion moved nothing a kNN search does. The single-round
// verifier before PR 22 (commit 5ab4894) read, on the range-search
// "mixed", ΣUnfiltered 3,112, 170 launches, 1,215 blocks, 814,688
// compute and 4,522,492 global cycles, and on "road" ΣUnfiltered
// 109,692, 5,213,750 columns, 294 launches, 2,862
// blocks, 6,307,558 compute and 29,965,824 global cycles. The kernel now
// runs on 1.8–2.4× fewer candidates and 2.4× fewer columns, searches pay
// a verify launch per round, and on "road" global cycles rise 15% (all
// cycles 8%): a candidate the cascade does not dismiss has been read once
// before the kernel streams its columns, and the simulator charges words
// moved, where the CPU that hosts it pays for the (2ρ+1)-cell columns the
// cascade saved.
func TestCostModelPinned(t *testing.T) {
	type work struct{ unfiltered, sealed, cascadePruned, columns int }
	scripts := []struct {
		name        string
		run         func(t *testing.T, dev *gpusim.Device, fold func(SearchStats))
		wantProfile gpusim.Profile
		want        work
	}{
		{
			name: "mixed",
			run: func(t *testing.T, dev *gpusim.Device, fold func(SearchStats)) {
				rng := rand.New(rand.NewSource(2015))
				ix, err := New(dev, randwalk(rng, 1500), DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				for step := 0; step < 12; step++ {
					for i := 0; i <= step%3; i++ {
						if err := ix.Advance(ix.Value(ix.Len()-1) + rng.NormFloat64()*0.3); err != nil {
							t.Fatal(err)
						}
					}
					switch step % 4 {
					case 0, 2:
						_, err = ix.Search(8, 1)
					case 1:
						_, err = ix.SearchMulti(8, []int{1, 3, 6})
					case 3:
						_, err = ix.Search(8, 2)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					fold(ix.Stats())
				}
			},
			wantProfile: gpusim.Profile{
				ComputeCycles: 793256,
				GlobalCycles:  4545092,
				LaunchCycles:  920000,
				Launches:      184,
				Blocks:        1229,
			},
			want: work{unfiltered: 1377, sealed: 1035, cascadePruned: 885, columns: 73521},
		},
		{
			name: "road",
			run: func(t *testing.T, dev *gpusim.Device, fold func(SearchStats)) {
				stream, err := datasets.NewStream(datasets.Road, 11, 0)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := New(dev, stream.Take(2048), DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				if _, err := ix.Search(32, 1); err != nil { // build the window level, prime the τ seeds
					t.Fatal(err)
				}
				fold(ix.Stats())
				for step, h := range [...]int{1, 1, 3, 3, 6, 6, 1, 1, 3, 3, 6, 6, 1, 1, 3, 3, 6, 6, 1, 1, 3, 3, 6, 6} {
					if err := ix.Advance(stream.Next()); err != nil {
						t.Fatal(err)
					}
					if _, err := ix.Search(32, h); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					fold(ix.Stats())
				}
			},
			wantProfile: gpusim.Profile{
				ComputeCycles: 4502062,
				GlobalCycles:  34424048,
				LaunchCycles:  1955000,
				Launches:      391,
				Blocks:        2840,
			},
			want: work{unfiltered: 61060, sealed: 20884, cascadePruned: 18653, columns: 2197194},
		},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			dev := testDevice(t)
			var got work
			sc.run(t, dev, func(st SearchStats) {
				got.unfiltered += st.Unfiltered
				got.sealed += st.Sealed
				got.cascadePruned += st.CascadePruned
				got.columns += st.Columns
			})
			if p := dev.Profile(); p != sc.wantProfile {
				t.Errorf("device profile moved:\n got  %+v\n want %+v", p, sc.wantProfile)
			}
			if got != sc.want {
				t.Errorf("verification work moved:\n got  %+v\n want %+v", got, sc.want)
			}
		})
	}
}
