package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"smiler/internal/scan"
)

// LazyKNNBootstrap is LazyKNN with bootstrap uncertainty: the paper
// (Section 2.1) notes that lazy learners "cannot estimate the
// analytical predictive uncertainty directly — bootstrap can partially
// remedy this drawback but requires high time cost". This implements
// that remedy so the cost/quality trade-off against the semi-lazy
// GP's closed-form uncertainty can be measured: the kNN search runs
// once, then the weighted-average prediction is recomputed over B
// bootstrap resamples of the neighbour set; the predictive variance is
// the variance of those B point predictions plus the within-resample
// label noise.
type LazyKNNBootstrap struct {
	// K, D, Rho mirror LazyKNN.
	K, D, Rho int
	// B is the number of bootstrap resamples (default 100).
	B int
	// Seed makes resampling deterministic.
	Seed int64
}

// Name identifies the method.
func (*LazyKNNBootstrap) Name() string { return "LazyKNN-Bootstrap" }

// Predict forecasts the value h steps after the end of history.
func (l *LazyKNNBootstrap) Predict(history []float64, h int) (Prediction, error) {
	if l.K <= 0 || l.D <= 0 || l.Rho < 0 || l.B <= 0 {
		return Prediction{}, fmt.Errorf("baselines: invalid bootstrap config %+v", *l)
	}
	if h <= 0 {
		return Prediction{}, fmt.Errorf("baselines: horizon %d must be positive", h)
	}
	if len(history) < l.D+l.Rho {
		return Prediction{}, fmt.Errorf("%w: history of %d points for d=%d", ErrNoData, len(history), l.D)
	}
	query := history[len(history)-l.D:]
	nbrs, _, err := scan.FastCPUScan(history, query, l.Rho, l.K, h)
	if err != nil {
		return Prediction{}, err
	}
	if len(nbrs) == 0 {
		return Prediction{}, fmt.Errorf("%w: no neighbours with valid labels", ErrNoData)
	}
	const eps = 1e-6
	type wl struct{ w, label float64 }
	pool := make([]wl, len(nbrs))
	for i, nb := range nbrs {
		pool[i] = wl{w: 1 / (math.Sqrt(nb.Dist) + eps), label: history[nb.T+l.D-1+h]}
	}

	rng := rand.New(rand.NewSource(l.Seed ^ int64(len(history))))
	var sum, sq float64
	for b := 0; b < l.B; b++ {
		var wsum, mean float64
		for i := 0; i < len(pool); i++ {
			pick := pool[rng.Intn(len(pool))]
			wsum += pick.w
			mean += pick.w * pick.label
		}
		mean /= wsum
		sum += mean
		sq += mean * mean
	}
	bm := sum / float64(l.B)
	variance := sq/float64(l.B) - bm*bm
	// Add the plain kNN label variance so the interval covers the
	// observation noise, not only the resampling spread of the mean.
	var wsum, mean float64
	for _, p := range pool {
		wsum += p.w
		mean += p.w * p.label
	}
	mean /= wsum
	var labVar float64
	for _, p := range pool {
		d := p.label - mean
		labVar += p.w * d * d
	}
	variance += labVar / wsum
	if variance < varFloor {
		variance = varFloor
	}
	return Prediction{Mean: bm, Variance: variance}, nil
}
