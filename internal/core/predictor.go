// Package core implements the paper's primary contribution: the
// semi-lazy time series predictor (Definition 3.1) and the machinery
// around it — the Aggregation Regression and Gaussian Process
// instantiations of the abstract predictor (Section 5.2), the
// ensemble matrix with likelihood-driven self-adaptive weights
// (Sections 3.2.2 and 5.1.1), the sleep-and-recovery scheduler
// (Section 5.1.2) and the per-sensor pipeline that glues the Search
// Step (SMiLer Index) to the Prediction Step.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"smiler/internal/fault"
	"smiler/internal/gp"
	"smiler/internal/memsys"
)

// Prediction is the posterior of an h-step-ahead observation.
type Prediction struct {
	Mean     float64
	Variance float64
}

// Valid reports whether the prediction is finite with positive
// variance.
func (p Prediction) Valid() bool {
	return !math.IsNaN(p.Mean) && !math.IsInf(p.Mean, 0) && p.Variance > 0 && !math.IsInf(p.Variance, 0)
}

// LogLikelihood returns log N(y | mean, variance) — the predictor
// evaluation signal of Eqn. 7.
func (p Prediction) LogLikelihood(y float64) float64 {
	d := y - p.Mean
	return -0.5*math.Log(2*math.Pi*p.Variance) - d*d/(2*p.Variance)
}

// Predictor is the abstract semi-lazy predictor f(x₀, X_{k,d}, Y_h)
// of Definition 3.1: given the query segment and its kNN training
// pairs, produce the posterior of the h-step-ahead value.
type Predictor interface {
	// Predict builds the query-dependent model on (x, y) and evaluates
	// it at x0. Implementations may carry state across calls (the GP
	// predictor warm-starts its hyperparameters) but must be usable
	// for a fresh query each call.
	Predict(x0 []float64, x [][]float64, y []float64) (Prediction, error)
	// Name identifies the instantiation ("AR", "GP") for reporting.
	Name() string
}

// ErrNoNeighbors is returned when a predictor receives an empty kNN set.
var ErrNoNeighbors = errors.New("core: no neighbours to predict from")

// varianceFloor keeps likelihoods finite when a kNN set is degenerate
// (all labels identical).
const varianceFloor = 1e-9

// ARPredictor is the simple Aggregation Regression predictor
// (Eqns. 10–13): pseudo-mean = average of the neighbour labels,
// pseudo-variance = their population variance.
type ARPredictor struct{}

// NewAR returns an Aggregation Regression predictor.
func NewAR() *ARPredictor { return &ARPredictor{} }

// Name implements Predictor.
func (*ARPredictor) Name() string { return "AR" }

// Predict implements Predictor.
func (*ARPredictor) Predict(x0 []float64, x [][]float64, y []float64) (Prediction, error) {
	if len(y) == 0 {
		return Prediction{}, ErrNoNeighbors
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	mean := sum / float64(len(y))
	var ss float64
	for _, v := range y {
		d := v - mean
		ss += d * d
	}
	variance := ss / float64(len(y))
	if variance < varianceFloor {
		variance = varianceFloor
	}
	return Prediction{Mean: mean, Variance: variance}, nil
}

// GPObjective selects the hyperparameter training objective.
type GPObjective int

const (
	// ObjectiveLOO maximizes the leave-one-out predictive likelihood —
	// the paper's choice (Eqns. 19–20, following [64]).
	ObjectiveLOO GPObjective = iota
	// ObjectiveML maximizes the log marginal likelihood — the textbook
	// alternative, provided for the training-objective ablation.
	ObjectiveML
)

// GPPredictor instantiates the abstract predictor with a Gaussian
// Process (Section 5.2.2). The first query runs a full conjugate-
// gradient optimization of the training objective from a data-driven
// seed; subsequent queries warm-start from the previous
// hyperparameters and take a fixed small number of CG steps — the
// paper's "online training in continuous prediction". Within one
// Prediction Step the pipeline pays for one such first fit per ensemble
// column: the column's other untrained cells are seeded with that
// cell's fitted hyperparameters and take the online budget
// (Pipeline.predictColumn).
type GPPredictor struct {
	// FullIterations is the CG budget of the initial optimization
	// (default 20).
	FullIterations int
	// OnlineIterations is the CG budget of every subsequent refresh
	// (the paper uses five; default 5).
	OnlineIterations int
	// Objective selects LOO (default, the paper's) or ML training.
	Objective GPObjective

	hyper   gp.Hyper
	trained bool
	seeded  bool // hyper came from another cell and has not been optimized here yet
}

// NewGP returns a GP predictor with the paper's training budgets.
func NewGP() *GPPredictor {
	return &GPPredictor{FullIterations: 20, OnlineIterations: 5}
}

// Name implements Predictor.
func (*GPPredictor) Name() string { return "GP" }

// Hyper returns the current hyperparameters (zero value before the
// first query).
func (g *GPPredictor) Hyper() gp.Hyper { return g.hyper }

// SetHyper seeds the warm-start hyperparameters (used when restoring a
// checkpoint). Invalid values leave the predictor untrained.
func (g *GPPredictor) SetHyper(h gp.Hyper) {
	if h.Validate() == nil {
		g.hyper = h
		g.trained = true
	}
}

// cold reports whether the next query runs the full optimization from
// the data-driven seed.
func (g *GPPredictor) cold() bool { return !g.trained || g.hyper.Validate() != nil }

// seed makes h, fitted by another cell, the warm start of the next
// query, which then takes the online budget.
func (g *GPPredictor) seed(h gp.Hyper) {
	g.SetHyper(h)
	g.seeded = g.trained
}

// How a GP hyperparameter optimization starts: cold (data-driven seed,
// full budget), seeded (another cell's fit, online budget), warm (this
// cell's previous fit, online budget) or fallback (a fresh data-driven
// seed after the first attempt failed — a second optimization).
const (
	startCold = iota
	startSeeded
	startWarm
	startFallback
)

var (
	gpStartNames  = [...]string{"cold", "seeded", "warm", "fallback"}
	gpStartCounts [len(gpStartNames)]atomic.Uint64
)

// GPOptimizations returns how many GP hyperparameter optimizations have
// started each way, keyed "cold", "seeded", "warm" and "fallback".
// Package-level, like the gp package's counters: a predictor carries no
// registry handle.
func GPOptimizations() map[string]uint64 {
	m := make(map[string]uint64, len(gpStartNames))
	for i, name := range gpStartNames {
		m[name] = gpStartCounts[i].Load()
	}
	return m
}

// optimize runs the training objective on (x, y) from init for at most
// iters CG iterations — through col's shared Gram base when col is
// non-nil, in which case (x, y) are its leading pairs.
func (g *GPPredictor) optimize(col *gp.Column, x [][]float64, y []float64, init gp.Hyper, iters int) (gp.OptimizeResult, error) {
	switch {
	case col != nil && g.Objective == ObjectiveML:
		return col.OptimizeML(len(y), init, iters)
	case col != nil:
		return col.Optimize(len(y), init, iters)
	case g.Objective == ObjectiveML:
		return gp.OptimizeML(x, y, init, iters)
	}
	return gp.Optimize(x, y, init, iters)
}

// train optimizes the hyperparameters for one query on (x, y) — through
// col when non-nil — and makes them the next query's warm start.
func (g *GPPredictor) train(col *gp.Column, x0 []float64, x [][]float64, y []float64) (gp.Hyper, error) {
	start, init, iters := startWarm, g.hyper, g.OnlineIterations
	switch {
	case g.cold():
		start, init, iters = startCold, gp.HeuristicHyper(x, y), g.FullIterations
	case g.seeded:
		start = startSeeded
	}
	g.seeded = false
	gpStartCounts[start].Add(1)
	res, err := g.optimize(col, x, y, init, iters)
	if err != nil {
		// A broken warm start (e.g. the data regime shifted under the
		// stored hyperparameters) falls back to a fresh seed once.
		gpStartCounts[startFallback].Add(1)
		res, err = g.optimize(col, x, y, gp.HeuristicHyper(x, y), g.FullIterations)
		if err != nil {
			return gp.Hyper{}, fmt.Errorf("core: GP training failed: %w", err)
		}
	}
	hyper := res.Hyper
	// Guard against the LOO prior-collapse pathology: with clustered,
	// label-noisy kNN sets the LOO objective can be indifferent between
	// "predict from neighbours" and "treat everything as independent
	// noise", and the optimizer may drive the length-scale so small
	// that the test input has numerically zero covariance with every
	// neighbour — the posterior then degenerates to the prior N(0, θ₀²)
	// regardless of the retrieved data. Detect that (no support at x0)
	// and fall back to the data-driven seed, which by construction
	// keeps neighbours within one length-scale.
	if !supported(x0, x, hyper) {
		hyper = gp.HeuristicHyper(x, y)
	}
	g.hyper = hyper
	g.trained = true
	return hyper, nil
}

// Predict implements Predictor.
func (g *GPPredictor) Predict(x0 []float64, x [][]float64, y []float64) (Prediction, error) {
	if len(y) == 0 {
		return Prediction{}, ErrNoNeighbors
	}
	if err := fault.Check(fault.PointGPFit); err != nil {
		return Prediction{}, fmt.Errorf("core: GP fit: %w", err)
	}
	hyper, err := g.train(nil, x0, x, y)
	if err != nil {
		return Prediction{}, err
	}
	model, err := gp.Fit(x, y, hyper)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: GP conditioning failed: %w", err)
	}
	return posterior(model, x0, len(y))
}

// posterior evaluates a fitted model at x0 and releases it: the model is
// query-transient, only the warm-start Hyper survives the call, so its
// pooled state goes straight back to memsys.
func posterior(model *gp.Model, x0 []float64, k int) (Prediction, error) {
	defer model.Release()
	scratch := memsys.GetFloats(2 * k)
	defer memsys.PutFloats(scratch)
	mean, variance, err := model.PredictBuf(x0, scratch)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: GP prediction failed: %w", err)
	}
	if variance < varianceFloor {
		variance = varianceFloor
	}
	return Prediction{Mean: mean, Variance: variance}, nil
}

// ColumnPredictor is implemented by predictors that can evaluate one
// ensemble cell through a shared per-column gp.Column, reusing the
// column's Gram-base matrix across every cell with the same d. The
// result must be numerically identical to Predict on the same prefix —
// the sharing only avoids recomputation.
type ColumnPredictor interface {
	PredictColumn(col *gp.Column, k int) (Prediction, error)
}

// PredictColumn implements ColumnPredictor: it mirrors Predict exactly
// (warm start, fallback reseed, prior-collapse guard) but routes every
// optimization and conditioning through the column's shared Gram base,
// so the returned posterior is bit-identical to Predict on the leading
// k pairs.
func (g *GPPredictor) PredictColumn(col *gp.Column, k int) (Prediction, error) {
	if k > col.Len() {
		k = col.Len()
	}
	if k <= 0 {
		return Prediction{}, ErrNoNeighbors
	}
	if err := fault.Check(fault.PointGPFit); err != nil {
		return Prediction{}, fmt.Errorf("core: GP fit: %w", err)
	}
	x, y := col.XY(k)
	hyper, err := g.train(col, col.X0(), x, y)
	if err != nil {
		return Prediction{}, err
	}
	model, err := col.Fit(k, hyper)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: GP conditioning failed: %w", err)
	}
	return posterior(model, col.X0(), k)
}

// supported reports whether the test input retains meaningful
// covariance with at least one training point under hp: the largest
// normalized kernel value c(x0,xi)/θ₀² must exceed a small floor.
func supported(x0 []float64, x [][]float64, hp gp.Hyper) bool {
	s2 := hp.Signal * hp.Signal
	if s2 <= 0 {
		return false
	}
	for _, xi := range x {
		if hp.Cov(x0, xi)/s2 > 0.05 {
			return true
		}
	}
	return false
}

// PredictorFactory builds one predictor instance per ensemble cell.
type PredictorFactory func() Predictor
