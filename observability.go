package smiler

import (
	"errors"
	"strconv"

	"smiler/internal/core"
	"smiler/internal/gp"
	"smiler/internal/index"
	"smiler/internal/memsys"
	"smiler/internal/obs"
)

// Phase label values of the prediction latency histogram.
var predictPhases = []string{"total", "search", "lower_bound", "verify", "cell_fit", "mix"}

// Phase label values of the observation latency histogram.
var observePhases = []string{"total", "reweight", "advance"}

// systemObs owns the system's metrics registry, trace store and every
// pre-resolved instrument the hot paths record into. With metrics
// disabled every field is nil; all obs instruments are nil-safe, so
// the recording sites below degrade to a handful of nil checks — the
// no-op sink the EXPERIMENTS.md overhead benchmark compares against.
type systemObs struct {
	reg     *obs.Registry
	traces  *obs.TraceStore
	events  *obs.EventRing
	runtime *obs.RuntimeSampler

	// predictions counts completed predictions by quality rung
	// ("exact", "progressive", "fallback") — the quality-ladder view of
	// smiler_predictions_total.
	predictions map[string]*obs.Counter
	predictErrs *obs.Counter
	observed    *obs.Counter
	observeErrs *obs.Counter

	// qualityEst is the distribution of quality estimates (ProS-style
	// probability that the served set equals the exact one).
	qualityEst *obs.Histogram

	predictPhase map[string]*obs.Histogram
	observePhase map[string]*obs.Histogram

	knnCandidates *obs.Counter
	knnPruned     *obs.Counter
	knnUnfiltered *obs.Counter
	// What became of the filter's survivors that no kernel ran on, and
	// what the kernel runs cost (see index.SearchStats).
	knnSealed        *obs.Counter
	knnCascadePruned *obs.Counter
	dtwColumns       *obs.Counter

	// Semi-lazy index maintenance, paid by forecasts: observations their
	// searches folded into the index, and window levels built from
	// scratch (first forecast after registration or fault-in, a gap too
	// long to advance over, or recovery from a failed catch-up).
	indexCatchupSteps *obs.Counter
	indexBuilds       *obs.Counter

	// Fault-tolerance instruments: degraded (fallback) answers by
	// failure reason, and panics recovered into errors instead of
	// crashing the process.
	degraded        map[string]*obs.Counter
	panicsRecovered *obs.Counter

	// Tiering instruments: cold sensors faulted back in, hot sensors
	// evicted (spilled) to disk, and observations appended to a cold
	// sensor's tail file.
	sensorFaults    *obs.Counter
	sensorEvictions *obs.Counter
	tailAppends     *obs.Counter
}

// degradeReasons are the label values of the degraded-predictions
// counter (see degradeReason).
var degradeReasons = []string{"deadline", "panic", "error"}

// qualityTags are the label values of the predictions counter: the
// rungs of the exact → progressive → fallback quality ladder.
var qualityTags = []string{"exact", "progressive", "fallback"}

// newSystemObs builds the registry and instruments (enabled mode).
func newSystemObs() *systemObs {
	reg := obs.NewRegistry()
	so := &systemObs{
		reg:    reg,
		traces: obs.NewTraceStore(obs.DefaultTraceCapacity),
		predictErrs: reg.Counter("smiler_predict_errors_total",
			"Predictions that failed."),
		observed: reg.Counter("smiler_observations_total",
			"Observations applied to the system."),
		observeErrs: reg.Counter("smiler_observe_errors_total",
			"Observations whose apply failed."),
		predictPhase: make(map[string]*obs.Histogram, len(predictPhases)),
		observePhase: make(map[string]*obs.Histogram, len(observePhases)),
		knnCandidates: reg.Counter("smiler_knn_candidates_total",
			"Candidate segments whose lower bound the group-level index produced."),
		knnPruned: reg.Counter("smiler_knn_pruned_total",
			"Candidates eliminated by a lower bound (filter, sealed round or cascade) without DTW verification."),
		knnUnfiltered: reg.Counter("smiler_knn_unfiltered_total",
			"Candidates that survived the filter and required DTW verification (the banded kernel ran on them)."),
		knnSealed: reg.Counter("smiler_knn_sealed_total",
			"Filter survivors a verification round's tightened cutoff ruled out untouched."),
		knnCascadePruned: reg.Counter("smiler_knn_cascade_pruned_total",
			"Filter survivors the verify block's O(d) LB_Keogh cascade dismissed instead of running DTW."),
		dtwColumns: reg.Counter("smiler_dtw_columns_total",
			"Warping-matrix band columns the DTW kernel processed."),
		indexCatchupSteps: reg.Counter("smiler_index_catchup_steps_total",
			"Observations that forecasts' searches caught the index up over (appended since the sensor's previous search)."),
		indexBuilds: reg.Counter("smiler_index_builds_total",
			"Searches that built the index's window level from scratch instead of advancing it."),
	}
	so.panicsRecovered = reg.Counter("smiler_panics_recovered_total",
		"Panics recovered into errors inside predictions (predict workers).")
	so.sensorFaults = reg.Counter("smiler_sensor_faults_total",
		"Cold sensors faulted back in from their spill files.")
	so.sensorEvictions = reg.Counter("smiler_sensor_evictions_total",
		"Hot sensors spilled cold by the MaxHotSensors LRU.")
	so.tailAppends = reg.Counter("smiler_sensor_tail_appends_total",
		"Observations of cold sensors appended to their tail files instead of faulting them in.")
	so.predictions = make(map[string]*obs.Counter, len(qualityTags))
	for _, q := range qualityTags {
		so.predictions[q] = reg.Counter("smiler_predictions_total",
			"Completed predictions by quality-ladder rung (all horizons of a multi-horizon call count once).",
			obs.L("quality", q))
	}
	so.qualityEst = reg.Histogram("smiler_anytime_quality_estimate",
		"Quality estimate of predictions: probability the served neighbour sets equal the exact ones (1 exact, 0 fallback).",
		[]float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1})
	so.degraded = make(map[string]*obs.Counter, len(degradeReasons))
	for _, reason := range degradeReasons {
		so.degraded[reason] = reg.Counter("smiler_degraded_predictions_total",
			"Predictions answered by the fallback baseline instead of the full pipeline.",
			obs.L("reason", reason))
	}
	for _, ph := range predictPhases {
		so.predictPhase[ph] = reg.Histogram("smiler_predict_phase_seconds",
			"Prediction latency by pipeline phase.", nil, obs.L("phase", ph))
	}
	for _, ph := range observePhases {
		so.observePhase[ph] = reg.Histogram("smiler_observe_phase_seconds",
			"Observation-apply latency by pipeline phase.", nil, obs.L("phase", ph))
	}
	// GP fitting keeps package-level counters (the innermost hot loop
	// carries no registry handle), and so do the GP predictor's start
	// counts; bridge them lazily at scrape time.
	reg.CounterFunc("smiler_gp_fits_total",
		"GP conditioning runs (covariance build + Cholesky).",
		func() float64 { return float64(gp.SnapshotStats().Fits) })
	reg.CounterFunc("smiler_gp_jitter_retries_total",
		"Cholesky attempts that failed and walked up the jitter ladder.",
		func() float64 { return float64(gp.SnapshotStats().JitterRetries) })
	reg.CounterFunc("smiler_gp_optimizer_evals_total",
		"Objective values (one GP fit each) computed optimizing GP hyperparameters.",
		func() float64 { return float64(gp.SnapshotStats().OptimizeEvals) })
	reg.CounterFunc("smiler_gp_optimizer_gradients_total",
		"Objective gradients computed optimizing GP hyperparameters (starting points and accepted steps).",
		func() float64 { return float64(gp.SnapshotStats().Gradients) })
	for _, start := range []string{"cold", "seeded", "warm", "fallback"} {
		reg.CounterFunc("smiler_gp_optimizations_total",
			"GP hyperparameter optimizations by how they started: cold (data-driven seed, full budget), seeded (another cell of the column's fit), warm (the cell's previous fit), fallback (a fresh seed after a failed attempt).",
			func() float64 { return float64(core.GPOptimizations()[start]) }, obs.L("start", start))
	}
	reg.CounterFunc("smiler_gp_columns_total",
		"Shared per-column Gram bases materialized for the Prediction Step.",
		func() float64 { return float64(gp.SnapshotStats().Columns) })
	registerMemsys(reg)
	return so
}

// registerMemsys bridges the slab allocator's per-class counters into
// the registry. Like the gp counters these live at package level (the
// pool has no registry handle), so they are read lazily at scrape
// time: one snapshot per pool per scrape, shared by every class series
// through the closure table built here.
func registerMemsys(reg *obs.Registry) {
	pools := []struct {
		name string
		snap func() []memsys.ClassStats
	}{
		{"floats", memsys.FloatStats},
		{"bytes", memsys.ByteStats},
	}
	for _, p := range pools {
		snap := p.snap
		for i, cs := range snap() {
			idx := i
			labels := []obs.Label{obs.L("pool", p.name), obs.L("class", strconv.Itoa(cs.Size))}
			reg.CounterFunc("smiler_memsys_hits_total",
				"Slab Gets served from a free list.",
				func() float64 { return float64(snap()[idx].Hits) }, labels...)
			reg.CounterFunc("smiler_memsys_misses_total",
				"Slab Gets that fell through to the heap.",
				func() float64 { return float64(snap()[idx].Misses) }, labels...)
			reg.CounterFunc("smiler_memsys_drops_total",
				"Slab returns surrendered to the GC (free list full or pool disabled).",
				func() float64 { return float64(snap()[idx].Drops) }, labels...)
			reg.GaugeFunc("smiler_memsys_inuse",
				"Slabs currently outstanding (Gets minus returns).",
				func() float64 { return float64(snap()[idx].InUse) }, labels...)
		}
	}
	reg.GaugeFunc("smiler_memsys_enabled",
		"Whether the slab pool is active (1) or degraded to plain make (0).",
		func() float64 {
			if memsys.Enabled() {
				return 1
			}
			return 0
		})
}

// registerSystem adds the gauges that read live system state at
// scrape time (sensor count, device memory).
func (so *systemObs) registerSystem(s *System) {
	if so.reg == nil {
		return
	}
	so.reg.GaugeFunc("smiler_sensors",
		"Registered sensors (hot and cold).",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.sensors)) + float64(s.tier.coldCount())
		})
	so.reg.GaugeFunc("smiler_sensors_hot",
		"Sensors with a live pipeline and device-resident index.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.sensors))
		})
	so.reg.GaugeFunc("smiler_sensors_cold",
		"Sensors currently spilled to disk by the MaxHotSensors LRU.",
		func() float64 { return float64(s.tier.coldCount()) })
	so.reg.GaugeFunc("smiler_device_used_bytes",
		"Simulated GPU memory in use.",
		func() float64 { return float64(s.dev.UsedBytes()) })
	so.reg.GaugeFunc("smiler_device_total_bytes",
		"Simulated GPU memory capacity.",
		func() float64 { return float64(s.dev.TotalBytes()) })
}

// recordPredict folds one prediction's timing, search stats and
// quality rung into the registry.
func (so *systemObs) recordPredict(totalSec float64, timing core.PhaseTiming, st index.SearchStats, qual core.QualityInfo, err error) {
	if err != nil {
		so.predictErrs.Inc()
		return
	}
	tag := qual.Tag
	if tag == "" {
		tag = "exact"
	}
	if so.predictions != nil {
		if c, ok := so.predictions[tag]; ok {
			c.Inc()
		}
	}
	so.qualityEst.Observe(qual.Estimate)
	so.predictPhase["total"].Observe(totalSec)
	so.predictPhase["search"].Observe(timing.SearchSec)
	so.predictPhase["lower_bound"].Observe(timing.LowerBoundSec)
	so.predictPhase["verify"].Observe(timing.VerifySec)
	so.predictPhase["cell_fit"].Observe(timing.CellFitSec)
	so.predictPhase["mix"].Observe(timing.MixSec)
	so.knnCandidates.Add(st.Candidates)
	so.knnPruned.Add(st.Pruned())
	so.knnUnfiltered.Add(st.Unfiltered)
	so.knnSealed.Add(st.Sealed)
	so.knnCascadePruned.Add(st.CascadePruned)
	so.dtwColumns.Add(st.Columns)
	so.indexCatchupSteps.Add(st.CatchupSteps)
	if st.Rebuilt {
		so.indexBuilds.Inc()
	}
}

// recordObserve folds one applied observation's timing into the
// registry.
func (so *systemObs) recordObserve(totalSec float64, timing core.ObserveTiming, err error) {
	if err != nil {
		so.observeErrs.Inc()
		return
	}
	so.observed.Inc()
	so.observePhase["total"].Observe(totalSec)
	so.observePhase["reweight"].Observe(timing.ReweightSec)
	so.observePhase["advance"].Observe(timing.AdvanceSec)
}

// recordTailAppend counts one observation a cold sensor took as a
// tail append; it has no reweight or advance phase.
func (so *systemObs) recordTailAppend(totalSec float64) {
	so.observed.Inc()
	so.observePhase["total"].Observe(totalSec)
}

// recordDegraded counts one fallback answer by failure reason, flags
// it in the flight recorder, and counts the recovered panic behind it
// if that is what failed the pipeline.
func (so *systemObs) recordDegraded(sensor, traceID, reason string, err error) {
	if so.degraded != nil {
		if c, ok := so.degraded[reason]; ok {
			c.Inc()
		}
	}
	// A fallback answer is a completed prediction on the ladder's
	// lowest rung.
	if so.predictions != nil {
		so.predictions["fallback"].Inc()
	}
	so.qualityEst.Observe(0)
	so.events.Record(obs.Event{
		Type:     "degraded_prediction",
		Severity: obs.SevWarn,
		Sensor:   sensor,
		TraceID:  traceID,
		Detail:   "reason=" + reason,
	})
	so.countPanic(err)
}

// countPanic bumps the recovered-panic counter — and drops a
// flight-recorder event — when err carries the core.ErrPanicked
// sentinel (nil-safe, cheap on the non-panic path).
func (so *systemObs) countPanic(err error) {
	if err != nil && errors.Is(err, core.ErrPanicked) {
		so.panicsRecovered.Inc()
		so.events.Record(obs.Event{
			Type:     "panic_recovered",
			Severity: obs.SevError,
			Detail:   err.Error(),
		})
	}
}

// PanicsRecovered reports the number of panics recovered inside the
// prediction pipeline so far — each one a degraded answer or an error
// instead of a dead process (0 with metrics disabled).
func (s *System) PanicsRecovered() uint64 { return s.obs.panicsRecovered.Value() }

// Metrics returns the system's metrics registry (nil when the system
// was built with DisableMetrics — a nil registry serves the whole obs
// API as a no-op, and WritePrometheus on it emits nothing).
func (s *System) Metrics() *obs.Registry { return s.obs.reg }

// Traces returns the per-sensor store of recent prediction traces
// (nil when metrics are disabled).
func (s *System) Traces() *obs.TraceStore { return s.obs.traces }

// Events returns the flight-recorder event ring (nil when metrics are
// disabled — a nil ring serves the whole API as a no-op).
func (s *System) Events() *obs.EventRing { return s.obs.events }

// Runtime returns the runtime/GC telemetry sampler (nil when metrics
// are disabled).
func (s *System) Runtime() *obs.RuntimeSampler { return s.obs.runtime }
