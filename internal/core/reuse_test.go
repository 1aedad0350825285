package core

import (
	"math/rand"
	"testing"
)

// readSchedule draws one step's reads of horizons (ascending): the
// horizons are cut into consecutive groups, so each is first requested
// in ascending order; every read adds a random subset of the horizons
// already requested, and its order is shuffled; pure repeats are mixed
// in between.
func readSchedule(rng *rand.Rand, horizons []int) [][]int {
	var reads [][]int
	var asked []int
	for i := 0; i < len(horizons); {
		j := i + 1 + rng.Intn(len(horizons)-i)
		read := append([]int(nil), horizons[i:j]...)
		for _, h := range asked {
			if rng.Intn(2) == 0 {
				read = append(read, h)
			}
		}
		asked = append(asked, horizons[i:j]...)
		rng.Shuffle(len(read), func(a, b int) { read[a], read[b] = read[b], read[a] })
		reads = append(reads, read)
		for rng.Intn(3) == 0 {
			reads = append(reads, []int{asked[rng.Intn(len(asked))]})
		}
		i = j
	}
	return reads
}

// TestReadScheduleInvariance: random read schedules between the same
// observations — repeated reads, horizon sets split or merged, horizons
// reordered inside a set — serve the bits of one PredictMulti per step,
// at every read and at every later step, for AR and GP cells.
func TestReadScheduleInvariance(t *testing.T) {
	all := seasonal(rand.New(rand.NewSource(23)), 420)
	horizons := []int{1, 3, 6}
	const steps = 15
	for _, tc := range []struct {
		name    string
		factory PredictorFactory
	}{
		{"AR", func() Predictor { return NewAR() }},
		{"GP", func() Predictor { return NewGP() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := testPipeline(t, tc.factory, EnsembleConfig{}, all[:400])
			want := make([]map[int]Prediction, steps)
			for step := range want {
				var err error
				if want[step], err = ref.PredictMulti(horizons); err != nil {
					t.Fatal(err)
				}
				if err := ref.Observe(all[400+step]); err != nil {
					t.Fatal(err)
				}
			}
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				pl := testPipeline(t, tc.factory, EnsembleConfig{}, all[:400])
				for step := 0; step < steps; step++ {
					for _, hs := range readSchedule(rng, horizons) {
						got, err := pl.PredictMulti(hs)
						if err != nil {
							t.Fatal(err)
						}
						for _, h := range hs {
							if !samePrediction(got[h], want[step][h]) {
								t.Fatalf("seed %d step %d read %v h=%d: %+v, one read per step: %+v",
									seed, step, hs, h, got[h], want[step][h])
							}
						}
					}
					if err := pl.Observe(all[400+step]); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
