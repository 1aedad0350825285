package gp

import "sync/atomic"

// Package-level instrumentation counters, bridged into the serving
// system's metrics registry at scrape time (smiler.System registers
// lazy collectors over SnapshotStats). Package atomics — not
// per-model state — because GP fitting is the innermost hot loop: one
// model per ensemble cell per prediction, where threading a registry
// handle through every constructor would cost more than it tells.
var (
	statFits              atomic.Uint64
	statJitterRetries     atomic.Uint64
	statOptimizeEvals     atomic.Uint64
	statOptimizeGradients atomic.Uint64
	statColumns           atomic.Uint64
)

// Stats is a point-in-time snapshot of the package counters.
type Stats struct {
	// Fits counts GP conditioning runs (covariance build + Cholesky).
	Fits uint64
	// JitterRetries counts Cholesky attempts that failed and walked one
	// step up the jitter ladder — a numerical-health signal: a rising
	// rate means ill-conditioned kNN training sets.
	JitterRetries uint64
	// OptimizeEvals counts objective values computed in hyperparameter
	// optimization — one Fit each: every starting point and every
	// line-search probe (OptimizeResult.Evals, summed).
	OptimizeEvals uint64
	// Gradients counts the objective gradients computed on top of those
	// values: one per starting point and one per accepted probe
	// (OptimizeResult.Gradients, summed). OptimizeEvals − Gradients is
	// the number of probes the line search did not accept, which pay for
	// their value only.
	Gradients uint64
	// Columns counts shared per-column Gram-base constructions (one per
	// ensemble column per Prediction Step on the shared path).
	Columns uint64
}

// SnapshotStats reads the package counters.
func SnapshotStats() Stats {
	return Stats{
		Fits:          statFits.Load(),
		JitterRetries: statJitterRetries.Load(),
		OptimizeEvals: statOptimizeEvals.Load(),
		Gradients:     statOptimizeGradients.Load(),
		Columns:       statColumns.Load(),
	}
}
