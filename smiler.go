// Package smiler is a semi-lazy time series prediction system for
// sensors — a from-scratch reproduction of "SMiLer: A Semi-Lazy Time
// Series Prediction System for Sensors" (SIGMOD 2015).
//
// Instead of eagerly training one global model per sensor, SMiLer
// answers each prediction request by (1) retrieving the k nearest
// historical segments of the sensor's own recent window under banded
// DTW — served by a two-level inverted-like index on a (simulated)
// GPU — and (2) fitting a small query-dependent Gaussian Process on
// just those neighbours, yielding a closed-form predictive mean and
// variance. An ensemble over (k, d) configurations self-tunes by
// reweighting predictors with their predictive likelihood and putting
// persistently weak ones to sleep.
//
// # Quick start
//
//	sys, _ := smiler.New(smiler.DefaultConfig())
//	defer sys.Close()
//	_ = sys.AddSensor("sensor-1", history)      // ≥ a few hundred points
//	f, _ := sys.Predict("sensor-1", 1)          // 1-step-ahead forecast
//	fmt.Println(f.Mean, f.StdDev())
//	_ = sys.Observe("sensor-1", nextValue)      // stream & self-tune
//
// The packages under internal/ implement the substrates: the DTW
// engine and lower bounds, the SMiLer index, the GPU simulator, the
// exact GP with LOO training, and the paper's ten competitor
// baselines.
package smiler

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/core"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/obs"
	"smiler/internal/timeseries"
)

// PredictorKind selects the instantiation of the abstract semi-lazy
// predictor.
type PredictorKind int

const (
	// PredictorGP is the Gaussian Process predictor (SMiLer-GP) — the
	// paper's headline configuration.
	PredictorGP PredictorKind = iota
	// PredictorAR is the aggregation-regression predictor (SMiLer-AR):
	// cheaper, nearly as accurate on seasonal data, weaker uncertainty.
	PredictorAR
)

func (k PredictorKind) String() string {
	switch k {
	case PredictorGP:
		return "GP"
	case PredictorAR:
		return "AR"
	default:
		return fmt.Sprintf("PredictorKind(%d)", int(k))
	}
}

// FallbackKind selects the graceful-degradation predictor used when
// the full semi-lazy pipeline fails or misses its deadline.
type FallbackKind int

const (
	// FallbackNone disables degradation: pipeline errors surface to the
	// caller unchanged.
	FallbackNone FallbackKind = iota
	// FallbackPersistence answers with the last observed value and a
	// random-walk variance — the cheapest defensible forecast.
	FallbackPersistence
	// FallbackAR1 answers with a lag-1 autoregression fitted on the
	// recent history window.
	FallbackAR1
)

func (k FallbackKind) String() string {
	switch k {
	case FallbackNone:
		return "none"
	case FallbackPersistence:
		return "persistence"
	case FallbackAR1:
		return "ar1"
	default:
		return fmt.Sprintf("FallbackKind(%d)", int(k))
	}
}

// ParseFallback maps a flag value onto a FallbackKind.
func ParseFallback(s string) (FallbackKind, error) {
	switch strings.ToLower(s) {
	case "", "none", "off":
		return FallbackNone, nil
	case "persistence", "naive":
		return FallbackPersistence, nil
	case "ar1", "ar":
		return FallbackAR1, nil
	}
	return FallbackNone, fmt.Errorf("smiler: unknown fallback %q (none|persistence|ar1)", s)
}

// Config configures a System. DefaultConfig returns the paper's
// defaults (Table 2).
type Config struct {
	// Device describes the simulated GPU hosting the per-sensor
	// indexes.
	Device gpusim.Config

	// EKV and ELV are the ensemble's kNN and segment-length vectors.
	EKV []int
	ELV []int

	// Rho is the Sakoe-Chiba warping width; Omega the index window
	// length.
	Rho   int
	Omega int

	// Predictor selects GP or AR cells.
	Predictor PredictorKind

	// Normalize z-normalizes each sensor on its initial history and
	// maps forecasts back to raw units (the paper normalizes every
	// sensor). Disable only if inputs are pre-normalized.
	Normalize bool

	// MaxHistory caps the history indexed per sensor at AddSensor time:
	// only the most recent MaxHistory points are kept — the paper's
	// second scale-out option (reduce the per-sensor footprint M to fit
	// more sensors, trading prediction quality; Section 6.4.1). 0 means
	// keep everything. Streamed observations still grow the history.
	MaxHistory int

	// DisableMetrics turns the observability layer off: no metrics
	// registry, no prediction traces, no flight recorder, no runtime
	// telemetry, and every instrumented hot path degrades to nil-check
	// no-ops. Metrics are on by default; this exists for the
	// instrumentation-overhead benchmark and for embedders that scrape
	// nothing.
	DisableMetrics bool

	// MaxHotSensors caps how many sensors keep a live pipeline and
	// device-resident index at once. Beyond the cap the least recently
	// used sensor is spilled to a single-sensor spill file on disk
	// ("cold") and faulted back in transparently on its next predict,
	// history read or NaN observe. Any other observe of a cold sensor
	// appends the value to the sensor's tail file and leaves it cold.
	// 0 (default) means unlimited: every registered sensor stays hot.
	MaxHotSensors int

	// SpillDir is where cold sensors spill when MaxHotSensors is set.
	// Empty means a fresh temp directory (removed by Close). Spill
	// files are a runtime cache, not a durability layer: the directory
	// is wiped at New, and crash durability still comes from
	// checkpoints (which embed cold sensors) plus WAL replay.
	SpillDir string

	// PredictDeadline bounds every prediction that arrives without its
	// own context deadline, as a quality budget on the ladder exact →
	// progressive → fallback. The per-sensor index verifies kNN
	// candidates in cost-ordered rounds; a deadline expiring mid-search
	// returns the always-valid best-so-far neighbour sets, the prediction
	// completes on them and is tagged Forecast.Quality "progressive" with
	// a quality estimate. A deadline that fires before any best-so-far
	// set exists (during the lower-bound pass) fails the prediction —
	// with Fallback set, the caller gets a degraded answer instead of an
	// error. A prediction its deadline never interrupts is exact and
	// bit-identical to an undeadlined one. 0 means no implicit deadline.
	PredictDeadline time.Duration

	// Fallback selects the graceful-degradation predictor. With
	// FallbackNone (default), pipeline failures surface as errors; with
	// persistence or AR(1), they come back as answers tagged
	// Forecast.Degraded with the failure reason.
	Fallback FallbackKind
}

// DefaultConfig returns the paper's default parameters: ρ=8, ω=16,
// ELV={32,64,96}, EKV={8,16,32}, GP predictors, z-normalization on a
// GTX-TITAN-like simulated device.
func DefaultConfig() Config {
	return Config{
		Device:    gpusim.DefaultConfig(),
		EKV:       []int{8, 16, 32},
		ELV:       []int{32, 64, 96},
		Rho:       8,
		Omega:     16,
		Predictor: PredictorGP,
		Normalize: true,
	}
}

// Forecast is a probabilistic prediction in the sensor's raw units.
type Forecast struct {
	// Mean is the predicted value.
	Mean float64
	// Variance is the predictive variance.
	Variance float64
	// Horizon is the look-ahead h the forecast was made for.
	Horizon int
	// Degraded marks a fallback answer: the full semi-lazy pipeline
	// failed or missed its deadline and the forecast came from the
	// configured cheap baseline instead. Degraded answers are still
	// calibrated (mean + variance) but carry none of the kNN/GP
	// machinery's accuracy.
	Degraded bool
	// DegradedReason classifies why ("deadline", "panic", "error");
	// empty when Degraded is false.
	DegradedReason string
	// Quality is the forecast's rung on the quality ladder: "exact"
	// (the full semi-lazy pipeline ran on the true kNN sets),
	// "progressive" (the deadline stopped the kNN search early and the
	// pipeline ran on the best-so-far sets), or
	// "fallback" (the answer came from the degradation baseline —
	// Degraded is also set).
	Quality string
	// QualityEstimate is the ProS-style probability that the retrieved
	// neighbour sets equal the exact ones: 1 for exact forecasts, in
	// (0, 1] for progressive ones, 0 for fallbacks.
	QualityEstimate float64
	// Reused marks an exact answer an earlier read of the same horizon
	// computed since the sensor's last observation, served again as it
	// was: between two observations every read of a horizon gets the
	// first exact answer computed for it, whatever its deadline.
	Reused bool
}

// StdDev returns the predictive standard deviation.
func (f Forecast) StdDev() float64 { return math.Sqrt(f.Variance) }

// Interval returns the central interval mean ± z·stddev (z=1.96 for a
// 95% Gaussian interval).
func (f Forecast) Interval(z float64) (lo, hi float64) {
	d := z * f.StdDev()
	return f.Mean - d, f.Mean + d
}

// System hosts one semi-lazy prediction pipeline per sensor on a
// shared simulated GPU. All exported methods are safe for concurrent
// use; operations on distinct sensors run in parallel.
type System struct {
	cfg Config
	dev *gpusim.Device
	obs *systemObs

	mu      sync.RWMutex
	sensors map[string]*sensorState
	closed  bool

	// tier is the hot/cold sensor tiering state (nil when
	// MaxHotSensors is 0: every sensor stays hot).
	tier *tierState
}

type sensorState struct {
	mu   sync.Mutex
	norm *timeseries.Normalizer
	pipe *core.Pipeline
	ix   *index.Index
	// gone marks a state spilled cold by the tier while a caller held a
	// stale pointer: set under mu, it tells the caller to retry through
	// the fault-in path instead of using the closed index.
	gone bool
}

// New builds a System.
func New(cfg Config) (*System, error) {
	dev, err := gpusim.NewDevice(cfg.Device)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.indexParams(); err != nil {
		return nil, err
	}
	if len(cfg.EKV) == 0 {
		return nil, errors.New("smiler: empty EKV")
	}
	if cfg.MaxHistory < 0 {
		return nil, fmt.Errorf("smiler: negative MaxHistory %d", cfg.MaxHistory)
	}
	tier, err := newTierState(cfg)
	if err != nil {
		return nil, err
	}
	so := &systemObs{} // disabled: nil instruments are no-ops
	if !cfg.DisableMetrics {
		so = newSystemObs()
		so.events = obs.NewEventRing(obs.DefaultEventCapacity, so.reg)
		so.runtime = obs.NewRuntimeSampler(so.reg)
		so.runtime.Start(obs.DefaultRuntimeInterval)
	}
	s := &System{cfg: cfg, dev: dev, obs: so, sensors: make(map[string]*sensorState), tier: tier}
	so.registerSystem(s)
	return s, nil
}

// indexParams derives the per-sensor index parameters from the config.
func (c Config) indexParams() (index.Params, error) {
	p := index.Params{Rho: c.Rho, Omega: c.Omega, ELV: c.ELV}
	if err := p.Validate(); err != nil {
		return index.Params{}, err
	}
	return p, nil
}

// predictorFactory builds the per-cell predictor constructor.
func (c Config) predictorFactory() core.PredictorFactory {
	if c.Predictor == PredictorAR {
		return func() core.Predictor { return core.NewAR() }
	}
	return func() core.Predictor { return core.NewGP() }
}

// MinHistory returns the minimum number of points AddSensor requires.
func (s *System) MinHistory() int {
	p, _ := s.cfg.indexParams()
	return p.ELV[len(p.ELV)-1] + s.cfg.Omega
}

// AddSensor registers a sensor with its initial history. The history
// must be at least MinHistory points. With Normalize set, the sensor's
// z-statistics are frozen on this history.
func (s *System) AddSensor(id string, history []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.addSensorLocked(id, history); err != nil {
		return err
	}
	s.tier.markHot(id)
	return s.enforceCapLocked(id)
}

// addSensorLocked is AddSensor without the lock or the tier
// bookkeeping: it conditions the raw history (MaxHistory cap, then the
// frozen z-normalisation) and installs the result. Callers hold s.mu.
func (s *System) addSensorLocked(id string, history []float64) error {
	if s.cfg.MaxHistory > 0 && len(history) > s.cfg.MaxHistory {
		history = history[len(history)-s.cfg.MaxHistory:]
	}
	if !s.cfg.Normalize {
		return s.installSensorLocked(id, history, nil)
	}
	norm, err := timeseries.NewNormalizer(history)
	if err != nil {
		return fmt.Errorf("smiler: sensor %q: %w", id, err)
	}
	work := make([]float64, len(history))
	for i, v := range history {
		work[i] = norm.Apply(v)
	}
	return s.installSensorLocked(id, work, norm)
}

// installSensorLocked indexes work — history already in the space the
// index holds — builds the sensor's pipeline and registers it with its
// normaliser (nil when normalisation is off): the shared tail of
// AddSensor, checkpoint restore and tier fault-in. Callers hold s.mu.
func (s *System) installSensorLocked(id string, work []float64, norm *timeseries.Normalizer) error {
	if s.closed {
		return errors.New("smiler: system closed")
	}
	if _, dup := s.sensors[id]; dup || s.tier.isCold(id) {
		return fmt.Errorf("smiler: sensor %q already registered", id)
	}
	params, err := s.cfg.indexParams()
	if err != nil {
		return err
	}
	ix, err := index.New(s.dev, work, params)
	if err != nil {
		return fmt.Errorf("smiler: sensor %q: %w", id, err)
	}
	pipe, err := core.NewPipeline(ix, core.PipelineConfig{
		EKV:     s.cfg.EKV,
		Index:   params,
		Horizon: 1,
		Factory: s.cfg.predictorFactory(),
	})
	if err != nil {
		ix.Close()
		return fmt.Errorf("smiler: sensor %q: %w", id, err)
	}
	s.sensors[id] = &sensorState{norm: norm, pipe: pipe, ix: ix}
	return nil
}

// RemoveSensor drops a sensor and frees its device memory. In-flight
// operations on the sensor finish first (the close waits on the
// sensor's lock); operations that grabbed the sensor but not yet its
// lock fail cleanly with an "index: closed" error.
func (s *System) RemoveSensor(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sensors[id]
	if !ok {
		if s.tier.isCold(id) {
			// A cold sensor has no live state: dropping its files, its
			// cold entry and its place on the LRU list is the whole
			// removal.
			s.tier.removeFiles(id, s.tier.dropCold(id))
			s.tier.unlist(id)
			s.obs.traces.Remove(id)
			return nil
		}
		return fmt.Errorf("smiler: unknown sensor %q", id)
	}
	delete(s.sensors, id)
	s.tier.unlist(id)
	s.obs.traces.Remove(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ix.Close()
}

// Sensors returns the registered sensor ids, sorted — hot and cold
// alike (a spilled sensor is still registered).
func (s *System) Sensors() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.sensors))
	for id := range s.sensors {
		out = append(out, id)
	}
	s.mu.RUnlock()
	out = append(out, s.tier.coldIDs()...)
	sort.Strings(out)
	return out
}

// HasSensor reports whether the sensor is currently registered (false
// on a closed system). The ingestion pipeline checks it under the
// sensor's shard lock, before it journals a write, so a journaled
// observation or removal always finds its sensor and a journaled
// registration never finds one.
func (s *System) HasSensor(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	if _, ok := s.sensors[id]; ok {
		return true
	}
	return s.tier.isCold(id)
}

// HistoryLen reports the number of points currently indexed for the
// sensor — its initial history plus every streamed observation (and
// minus nothing: MaxHistory only truncates at AddSensor time).
func (s *System) HistoryLen(id string) (int, error) {
	st, _, err := s.acquire(id)
	if err != nil {
		return 0, err
	}
	defer st.mu.Unlock()
	return st.ix.Len(), nil
}

// History returns a copy of the sensor's indexed points in arrival
// order — its initial history followed by every streamed observation —
// in the original units (the internal normalization is inverted).
// Recovery tests compare this against a reference stream.
func (s *System) History(id string) ([]float64, error) {
	st, _, err := s.acquire(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.Unlock()
	out := append([]float64(nil), st.ix.History()...)
	if st.norm != nil {
		for i, v := range out {
			out[i] = st.norm.Invert(v)
		}
	}
	return out, nil
}

// Predict forecasts the sensor's value h steps ahead of its latest
// observation: the one-horizon case of PredictHorizons.
func (s *System) Predict(id string, h int) (Forecast, error) {
	return s.PredictCtx(context.Background(), id, h)
}

// PredictCtx is the one-horizon case of PredictHorizonsCtx.
func (s *System) PredictCtx(ctx context.Context, id string, h int) (Forecast, error) {
	fs, err := s.PredictHorizonsCtx(ctx, id, []int{h})
	return fs[h], err
}

// PredictHorizons is PredictHorizonsCtx without a deadline.
func (s *System) PredictHorizons(id string, hs []int) (map[int]Forecast, error) {
	return s.PredictHorizonsCtx(context.Background(), id, hs)
}

// PredictHorizonsCtx is the system's one forecast path: it forecasts
// the sensor at every horizon in hs from one shared kNN search (the
// index verifies each candidate at most once), so a ladder of lead
// times costs little more than one. With metrics enabled, the
// prediction's per-phase latencies and kNN effectiveness land in the
// registry and a trace of its spans in the trace store. A read is
// idempotent between two observations: a horizon some earlier read
// answered exactly is served that answer again (Forecast.Reused), and
// only the other horizons are computed, in ascending order.
//
// The context is a deadline on the quality ladder (see
// Config.PredictDeadline). With Config.Fallback set, any operational
// failure — deadline exceeded, a predictor panic, a GP or index error —
// comes back as a degraded answer from the cheap baseline for every
// requested horizon without a reused answer, instead of an error.
// Validation failures (unknown sensor, empty horizon list, non-positive
// horizon) always surface as errors; there is nothing to degrade to.
func (s *System) PredictHorizonsCtx(ctx context.Context, id string, hs []int) (map[int]Forecast, error) {
	if err := validHorizons(hs); err != nil {
		s.obs.predictErrs.Inc()
		return nil, err
	}
	st, faulted, err := s.acquire(id)
	if err != nil {
		s.obs.predictErrs.Inc()
		return nil, err
	}
	// A horizon whose exact answer this step already computed is served
	// as it was, and only the others go to the pipeline; a read that
	// needs nothing else returns here, before the deadline, the trace and
	// the phase metrics.
	out := make(map[int]Forecast, len(hs))
	for _, h := range hs {
		if pred, ok := st.pipe.Exact(h); ok {
			out[h] = st.rawUnits(Forecast{Mean: pred.Mean, Variance: pred.Variance, Horizon: h,
				Quality: "exact", QualityEstimate: 1, Reused: true})
		}
	}
	miss := hs // the common read reuses nothing and allocates nothing here
	if len(out) > 0 {
		miss = nil
		for _, h := range hs {
			if _, ok := out[h]; !ok {
				miss = append(miss, h)
			}
		}
		if len(miss) == 0 {
			st.mu.Unlock()
			return out, nil
		}
	}
	// st.mu is held from here until the pipeline's state has been read
	// out; metrics, the trace store and de-normalisation run without it.
	ctx, cancel := s.predictContext(ctx)
	defer cancel()
	var tr *obs.Trace
	if s.obs.traces != nil {
		tr = obs.NewTrace(id, miss...)
		if tc, ok := obs.TraceFromContext(ctx); ok {
			tr.SetContext(tc)
		}
		if faulted {
			tr.SetStat("tier_fault", 1)
		}
	}
	start := time.Now()
	preds, err := st.pipe.PredictMultiTracedCtx(ctx, miss, tr)
	timing := st.pipe.Timing()
	searchStats := st.ix.Stats()
	qual := st.pipe.LastQuality()
	var degraded map[int]Forecast
	var reason string
	if err != nil && s.cfg.Fallback != FallbackNone {
		reason = degradeReason(err)
		degraded = s.fallbackLocked(st, miss, reason)
	}
	st.mu.Unlock()
	if degraded != nil {
		s.obs.recordDegraded(id, tr.ID(), reason, err)
		tr.SetStat("degraded", 1)
		tr.Finish(nil)
		s.obs.traces.Add(tr)
		maps.Copy(out, degraded)
		return out, nil
	}
	s.obs.recordPredict(time.Since(start).Seconds(), timing, searchStats, qual, err)
	tr.Finish(err)
	s.obs.traces.Add(tr)
	if err != nil {
		s.obs.countPanic(err)
		return nil, err
	}
	for h, pred := range preds {
		out[h] = st.rawUnits(Forecast{Mean: pred.Mean, Variance: pred.Variance, Horizon: h,
			Quality: qual.Tag, QualityEstimate: qual.Estimate})
	}
	return out, nil
}

// validHorizons rejects an empty horizon list or a non-positive horizon.
func validHorizons(hs []int) error {
	if len(hs) == 0 {
		return errors.New("smiler: empty horizon list")
	}
	for _, h := range hs {
		if h <= 0 {
			return fmt.Errorf("smiler: horizon %d must be positive", h)
		}
	}
	return nil
}

// rawUnits maps a forecast from the sensor's normalised space back to
// its raw units (a no-op without normalisation). The normaliser is
// frozen at registration, so no lock is needed.
func (st *sensorState) rawUnits(f Forecast) Forecast {
	if st.norm != nil {
		f.Mean = st.norm.Invert(f.Mean)
		f.Variance = st.norm.InvertVariance(f.Variance)
	}
	return f
}

// predictContext applies the configured PredictDeadline when the
// caller's context carries no deadline of its own.
func (s *System) predictContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.PredictDeadline <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.PredictDeadline)
}

// degradeReason classifies an operational prediction failure for the
// Forecast tag and the degraded-predictions metric.
func degradeReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline"
	case errors.Is(err, core.ErrPanicked):
		return "panic"
	default:
		return "error"
	}
}

// Observe streams the next observation of the sensor into the system:
// it appends it to the index's history — the sensor's next forecast
// catches the index up, so an observation nobody forecasts after costs
// an append — and closes the auto-tuning loop for matured predictions.
// An observation of a cold sensor (Config.MaxHotSensors) is appended to
// its tail file without faulting it in; its next fault-in folds it in.
// A NaN observation marks a missing reading:
// the gap is filled with the system's own one-step-ahead prediction so
// the fixed sample rate (Section 3.1) is preserved; the auto-tuning
// update for that step is skipped (there is no truth to score
// against).
func (s *System) Observe(id string, v float64) error {
	start := time.Now()
	st, _, err := s.acquireFor(id, v)
	if err != nil {
		s.obs.observeErrs.Inc()
		return err
	}
	if st == nil { // a cold sensor took v as a tail append
		s.obs.recordTailAppend(time.Since(start).Seconds())
		return nil
	}
	defer st.mu.Unlock()
	start = time.Now()
	if math.IsNaN(v) {
		pred, err := st.pipe.Predict(1)
		if err != nil {
			s.obs.observeErrs.Inc()
			return fmt.Errorf("smiler: imputing missing reading for %q: %w", id, err)
		}
		st.pipe.DropPendingFor(st.pipe.Index().Len()) // no truth will arrive
		err = st.pipe.Observe(pred.Mean)
		s.obs.recordObserve(time.Since(start).Seconds(), st.pipe.LastObserveTiming(), err)
		return err
	}
	if st.norm != nil {
		v = st.norm.Apply(v)
	}
	err = st.pipe.Observe(v)
	s.obs.recordObserve(time.Since(start).Seconds(), st.pipe.LastObserveTiming(), err)
	return err
}

// poolSize bounds a per-sensor fan-out at GOMAXPROCS workers: with
// millions of sensors, one goroutine per sensor would swamp the
// scheduler for no extra parallelism.
func poolSize(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachSensor runs fn over the ids on a bounded worker pool and
// returns the first error encountered (remaining ids are still
// visited).
func forEachSensor(ids []string, fn func(id string) error) error {
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < poolSize(len(ids)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				if err := fn(ids[i]); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// PredictAll forecasts every sensor h steps ahead, processing sensors
// in parallel on a worker pool bounded by GOMAXPROCS (the paper scales
// out by giving each sensor its own index and more GPU blocks). It
// returns the first error encountered.
func (s *System) PredictAll(h int) (map[string]Forecast, error) {
	ids := s.Sensors()
	out := make(map[string]Forecast, len(ids))
	var outMu sync.Mutex
	err := forEachSensor(ids, func(id string) error {
		f, err := s.Predict(id, h)
		if err != nil {
			return err
		}
		outMu.Lock()
		out[id] = f
		outMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ObserveAll streams one observation per sensor (missing sensors
// error). Distinct sensors hold distinct locks, so observations are
// applied in parallel on a worker pool bounded by GOMAXPROCS; on
// error, observations for other sensors may still have been applied.
func (s *System) ObserveAll(values map[string]float64) error {
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	return forEachSensor(ids, func(id string) error {
		return s.Observe(id, values[id])
	})
}

// DeviceUsage reports the simulated GPU's memory consumption.
func (s *System) DeviceUsage() (used, total int64) {
	return s.dev.UsedBytes(), s.dev.TotalBytes()
}

// EnsembleWeights reports the current (k, d) → weight map of a
// sensor's ensemble; sleeping cells report weight 0.
func (s *System) EnsembleWeights(id string) (map[[2]int]float64, error) {
	st, _, err := s.acquire(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.Unlock()
	out := make(map[[2]int]float64)
	for _, c := range st.pipe.Ensemble().Cells() {
		out[[2]int{c.K, c.D}] = c.Weight()
	}
	return out, nil
}

// Close releases every sensor's device memory and stops the runtime
// telemetry sampler. The system is unusable afterwards.
func (s *System) Close() error {
	s.obs.runtime.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for id, st := range s.sensors {
		st.mu.Lock()
		err := st.ix.Close()
		st.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
		delete(s.sensors, id)
	}
	s.tier.close()
	return first
}
