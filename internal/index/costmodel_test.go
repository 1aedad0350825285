package index

import (
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
)

// The simulator's numbers are part of the index's contract: every charge
// in verify.go/search.go is derived from what the DTW kernel reports
// (columns processed, candidates verified), so a kernel change that
// altered a returned distance, an abandon column or a filter decision
// would move them. This replays a fixed script — seeded history, twelve
// observe/search steps mixing single-horizon, multi-horizon and ε-range
// searches at the paper's default parameters — and compares the device
// profile and the verified-candidate count with the values recorded at
// commit c32786c (PR 19, the last commit running the modulus-indexed
// kernel).
func TestCostModelPinned(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(2015))
	ix, err := New(dev, randwalk(rng, 1500), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	unfiltered := 0
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
			_, err = ix.SearchRange(4, 2)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		unfiltered += ix.Stats().Unfiltered
	}
	want := gpusim.Profile{
		ComputeCycles: 814688,
		GlobalCycles:  4522492,
		SharedCycles:  0,
		DivergeCycles: 0,
		LaunchCycles:  850000,
		Launches:      170,
		Blocks:        1215,
	}
	const wantUnfiltered = 3112
	if got := dev.Profile(); got != want {
		t.Errorf("device profile moved:\n got  %+v\n want %+v", got, want)
	}
	if unfiltered != wantUnfiltered {
		t.Errorf("verified candidates = %d, want %d", unfiltered, wantUnfiltered)
	}
}
