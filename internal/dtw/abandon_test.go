package dtw

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randWalkSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// TestAbandonInfCutoffBitIdentical: with cutoff=+Inf the abandoning
// variant must return exactly DistanceCompressed's value and process
// every column.
func TestAbandonInfCutoffBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 4 + rng.Intn(60)
		rho := rng.Intn(12)
		q := randWalkSeries(rng, d)
		c := randWalkSeries(rng, d)
		want, err := DistanceCompressed(q, c, rho, nil)
		if err != nil {
			t.Fatalf("DistanceCompressed: %v", err)
		}
		got, cols, err := DistanceCompressedAbandon(q, c, rho, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("DistanceCompressedAbandon: %v", err)
		}
		if got != want {
			t.Fatalf("trial %d (d=%d rho=%d): abandon %v != plain %v", trial, d, rho, got, want)
		}
		if cols != d {
			t.Fatalf("trial %d: processed %d cols, want %d", trial, cols, d)
		}
	}
}

// TestAbandonSoundness: whenever the variant abandons, the true
// distance really exceeds the cutoff; whenever it completes, the value
// matches the plain variant bit-for-bit and is ≤ cutoff or the final
// column happened to stay under it.
func TestAbandonSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		d := 8 + rng.Intn(48)
		rho := rng.Intn(10)
		q := randWalkSeries(rng, d)
		c := randWalkSeries(rng, d)
		truth, err := DistanceCompressed(q, c, rho, nil)
		if err != nil {
			t.Fatalf("DistanceCompressed: %v", err)
		}
		// Cutoffs below, at, and above the true distance.
		for _, cutoff := range []float64{truth * 0.25, truth, truth * 4} {
			got, cols, err := DistanceCompressedAbandon(q, c, rho, cutoff, nil)
			if err != nil {
				t.Fatalf("abandon: %v", err)
			}
			if cols < 1 || cols > d {
				t.Fatalf("cols=%d outside [1,%d]", cols, d)
			}
			if math.IsInf(got, 1) {
				if truth <= cutoff {
					t.Fatalf("trial %d: abandoned although true distance %v ≤ cutoff %v", trial, truth, cutoff)
				}
			} else if got != truth {
				t.Fatalf("trial %d: completed with %v, want %v", trial, got, truth)
			}
		}
	}
}

// TestAbandonTieSurvives: a cutoff exactly equal to the true distance
// must never abandon (abandonment fires only on strictly greater column
// minima, and every column minimum lower-bounds the final distance).
func TestAbandonTieSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		d := 8 + rng.Intn(32)
		rho := 1 + rng.Intn(8)
		q := randWalkSeries(rng, d)
		c := randWalkSeries(rng, d)
		truth, _ := DistanceCompressed(q, c, rho, nil)
		got, cols, err := DistanceCompressedAbandon(q, c, rho, truth, nil)
		if err != nil {
			t.Fatalf("abandon: %v", err)
		}
		if got != truth || cols != d {
			t.Fatalf("trial %d: tie at cutoff abandoned (got %v cols %d, want %v cols %d)",
				trial, got, cols, truth, d)
		}
	}
}

// TestAbandonErrors mirrors DistanceCompressed's input validation.
func TestAbandonErrors(t *testing.T) {
	if _, _, err := DistanceCompressedAbandon(nil, nil, 2, 1, nil); err == nil {
		t.Fatal("empty inputs should error")
	}
	if _, _, err := DistanceCompressedAbandon([]float64{1, 2}, []float64{1}, 2, 1, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, _, err := DistanceCompressedAbandon([]float64{1}, []float64{1}, -1, 1, nil); err == nil {
		t.Fatal("negative rho should error")
	}
	if _, _, err := DistanceCompressedBounded([]float64{1, 2}, []float64{1, 2}, 1, 1, []float64{0, 0}, nil); !errors.Is(err, ErrLength) {
		t.Fatalf("a remaining-cost bound shorter than d+1 should be a length error, got %v", err)
	}
}
