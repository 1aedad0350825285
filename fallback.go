package smiler

import (
	"errors"
	"fmt"
	"math"
)

// fallbackWindow bounds how much history the stateless fallback
// forecasts look at: enough to estimate a mean, a lag-1 correlation
// and a residual variance, small enough to be O(1) relative to a long
// sensor history.
const fallbackWindow = 256

// fallbackVarFloor keeps residual-based variances positive.
const fallbackVarFloor = 1e-9

// errNoHistory is a fallback asked to forecast from an empty history.
var errNoHistory = errors.New("smiler: fallback needs a non-empty history")

// fallbackLocked computes the degraded forecast for every horizon from
// the sensor's surviving history (normalized space when normalization is
// on, then inverted like the normal path), or nil when the baseline
// cannot answer one of them. Callers hold st.mu.
func (s *System) fallbackLocked(st *sensorState, hs []int, reason string) map[int]Forecast {
	hist := st.ix.History()
	out := make(map[int]Forecast, len(hs))
	for _, h := range hs {
		var f Forecast
		var err error
		switch s.cfg.Fallback {
		case FallbackAR1:
			f, err = ar1Fallback(hist, h)
		default:
			f, err = persistenceFallback(hist, h)
		}
		if err != nil {
			return nil
		}
		f.Horizon, f.Degraded, f.DegradedReason, f.Quality = h, true, reason, "fallback"
		out[h] = st.rawUnits(f)
	}
	return out
}

// persistenceFallback is a stateless persistence forecast computed
// directly from a history slice: the last value, with a random-walk
// variance h·σ̂² estimated from the recent one-step increments. It is
// the graceful-degradation answer when the full semi-lazy pipeline
// fails or misses its deadline — no model state is required, only the
// history that already survived. Only Mean and Variance are set.
func persistenceFallback(history []float64, h int) (Forecast, error) {
	if len(history) == 0 {
		return Forecast{}, errNoHistory
	}
	if h <= 0 {
		return Forecast{}, fmt.Errorf("smiler: fallback horizon %d must be positive", h)
	}
	w := fallbackTail(history)
	var ss float64
	var n int
	for i := 1; i < len(w); i++ {
		d := w[i] - w[i-1]
		ss += d * d
		n++
	}
	v := fallbackVarFloor
	if n > 0 {
		v = ss / float64(n) * float64(h)
		if v < fallbackVarFloor {
			v = fallbackVarFloor
		}
	}
	return Forecast{Mean: history[len(history)-1], Variance: v}, nil
}

// ar1Fallback is a stateless AR(1) forecast computed directly from a
// history slice: a lag-1 autoregression ŷ(t+h) = μ + φ^h·(y(t) − μ)
// fitted on the recent window, with the textbook h-step variance
// σ̂²·Σ φ^{2j}. Slightly smarter than persistence on mean-reverting
// sensors, still O(window) with no model state. Only Mean and Variance
// are set.
func ar1Fallback(history []float64, h int) (Forecast, error) {
	if len(history) == 0 {
		return Forecast{}, errNoHistory
	}
	if h <= 0 {
		return Forecast{}, fmt.Errorf("smiler: fallback horizon %d must be positive", h)
	}
	w := fallbackTail(history)
	if len(w) < 3 {
		return persistenceFallback(history, h)
	}
	var mean float64
	for _, v := range w {
		mean += v
	}
	mean /= float64(len(w))
	var num, den float64
	for i := 1; i < len(w); i++ {
		num += (w[i] - mean) * (w[i-1] - mean)
		den += (w[i-1] - mean) * (w[i-1] - mean)
	}
	if den <= 0 {
		return persistenceFallback(history, h)
	}
	phi := num / den
	// Clamp away the unit root so the h-step variance stays finite.
	if phi > 0.999 {
		phi = 0.999
	} else if phi < -0.999 {
		phi = -0.999
	}
	var ss float64
	for i := 1; i < len(w); i++ {
		r := (w[i] - mean) - phi*(w[i-1]-mean)
		ss += r * r
	}
	sigma2 := ss / float64(len(w)-1)
	phiH := math.Pow(phi, float64(h))
	last := history[len(history)-1]
	variance := fallbackVarFloor
	if sigma2 > 0 {
		// Σ_{j=0}^{h-1} φ^{2j} = (1 − φ^{2h}) / (1 − φ²).
		variance = sigma2 * (1 - phiH*phiH) / (1 - phi*phi)
		if variance < fallbackVarFloor {
			variance = fallbackVarFloor
		}
	}
	return Forecast{Mean: mean + phiH*(last-mean), Variance: variance}, nil
}

// fallbackTail returns the trailing fallbackWindow points of history.
func fallbackTail(history []float64) []float64 {
	if len(history) > fallbackWindow {
		return history[len(history)-fallbackWindow:]
	}
	return history
}
