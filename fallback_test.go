package smiler

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestPersistenceFallback: the last value, a random-walk variance that
// is exactly h times the one-step variance, and errors for an empty
// history or a non-positive horizon.
func TestPersistenceFallback(t *testing.T) {
	if _, err := persistenceFallback(nil, 1); !errors.Is(err, errNoHistory) {
		t.Fatalf("empty history: err = %v, want errNoHistory", err)
	}
	history := make([]float64, 50)
	for i := range history {
		history[i] = float64(i % 3)
	}
	for _, h := range []int{0, -1} {
		if _, err := persistenceFallback(history, h); err == nil {
			t.Fatalf("h=%d should fail", h)
		}
	}
	f1, err := persistenceFallback(history, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Mean != history[len(history)-1] {
		t.Fatalf("mean = %v, want the last value %v", f1.Mean, history[len(history)-1])
	}
	if f1.Variance <= fallbackVarFloor {
		t.Fatalf("one-step variance %v at the floor", f1.Variance)
	}
	for _, h := range []int{2, 5, 17} {
		f, err := persistenceFallback(history, h)
		if err != nil {
			t.Fatal(err)
		}
		if f.Mean != f1.Mean || f.Variance != float64(h)*f1.Variance {
			t.Fatalf("h=%d: %+v, want mean %v and variance exactly %d × %v", h, f, f1.Mean, h, f1.Variance)
		}
	}
}

// TestAR1Fallback: below three points and on a constant window the
// AR(1) fallback answers as persistence; an explosive fit is clamped to
// |φ| = 0.999 so the variance stays finite; and on a mean-reverting
// series the forecast closes on the window mean as h grows.
func TestAR1Fallback(t *testing.T) {
	if _, err := ar1Fallback(nil, 1); !errors.Is(err, errNoHistory) {
		t.Fatalf("empty history: err = %v, want errNoHistory", err)
	}
	if _, err := ar1Fallback([]float64{1, 2, 3}, 0); err == nil {
		t.Fatal("h=0 should fail")
	}
	constant := make([]float64, 10)
	for i := range constant {
		constant[i] = 5
	}
	for _, history := range [][]float64{{7}, {1, 4}, constant} {
		for _, h := range []int{1, 3} {
			got, err := ar1Fallback(history, h)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := persistenceFallback(history, h)
			if got != want {
				t.Fatalf("%v, h=%d: %+v, want persistence %+v", history, h, got, want)
			}
		}
	}

	// y_i = (±1.1)^i fits φ beyond ±1; the forecast must use ±0.999.
	for _, base := range []float64{1.1, -1.1} {
		history := make([]float64, 60)
		for i := range history {
			history[i] = math.Pow(base, float64(i))
		}
		mean := windowMean(history)
		last := history[len(history)-1]
		f, err := ar1Fallback(history, 1)
		if err != nil {
			t.Fatal(err)
		}
		phi := (f.Mean - mean) / (last - mean)
		if want := math.Copysign(0.999, base); math.Abs(phi-want) > 1e-9 {
			t.Fatalf("base %v: implied φ = %v, want %v", base, phi, want)
		}
		if math.IsInf(f.Variance, 0) || math.IsNaN(f.Variance) || f.Variance <= 0 {
			t.Fatalf("base %v: variance %v", base, f.Variance)
		}
	}

	// A mean-reverting AR(1) path with φ = 0.7.
	rng := rand.New(rand.NewSource(1))
	history := make([]float64, 200)
	for i := 1; i < len(history); i++ {
		history[i] = 0.7*history[i-1] + rng.NormFloat64()
	}
	history[len(history)-1] = 4 // well away from the mean
	mean := windowMean(history)
	prev := math.Inf(1)
	for h := 1; h <= 30; h++ {
		f, err := ar1Fallback(history, h)
		if err != nil {
			t.Fatal(err)
		}
		gap := math.Abs(f.Mean - mean)
		if gap >= prev {
			t.Fatalf("h=%d: |mean − window mean| = %v, not below h−1's %v", h, gap, prev)
		}
		prev = gap
	}
	far, err := ar1Fallback(history, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(far.Mean-mean) > 1e-9 {
		t.Fatalf("h=500: mean %v, want the window mean %v", far.Mean, mean)
	}
}

// windowMean is the mean of the window the fallbacks fit on.
func windowMean(history []float64) float64 {
	w := fallbackTail(history)
	var sum float64
	for _, v := range w {
		sum += v
	}
	return sum / float64(len(w))
}
