package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/gp"
	"smiler/internal/index"
	"smiler/internal/memsys"
	"smiler/internal/obs"
)

// ErrPanicked wraps a panic recovered inside a prediction worker. A
// misbehaving predictor (or an injected fault) must never take the
// process down: the panic is converted into an error carrying this
// sentinel so callers can classify it and degrade.
var ErrPanicked = errors.New("core: recovered panic in predictor")

// PipelineConfig configures a per-sensor pipeline.
type PipelineConfig struct {
	// EKV is the Ensemble kNN Vector (paper default {8,16,32}).
	EKV []int
	// Index holds the search parameters; its ELV is the Ensemble
	// Length Vector.
	Index index.Params
	// Horizon is the default look-ahead h used by the continuous loop.
	Horizon int
	// Factory builds one predictor per ensemble cell; nil means the
	// paper's GP predictor.
	Factory PredictorFactory
	// Ensemble tunes the auto-tuning mechanism (ablations).
	Ensemble EnsembleConfig
	// PredictWorkers bounds the worker pool evaluating the ensemble's
	// ELV columns in parallel during the Prediction Step: 0 means
	// min(GOMAXPROCS, columns), 1 forces the sequential reference path,
	// n > 1 caps the pool at n. Columns are independent, so the output
	// is identical at any setting.
	PredictWorkers int
}

// DefaultPipelineConfig returns the paper's defaults (Table 2): the
// 3×3 ensemble EKV={8,16,32} × ELV={32,64,96}, ρ=8, ω=16, h=1, GP
// predictors.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		EKV:     []int{8, 16, 32},
		Index:   index.DefaultParams(),
		Horizon: 1,
		Factory: func() Predictor { return NewGP() },
	}
}

// pendingUpdate is one (target, h) answer of the current step: the
// per-cell predictions the self-adaptive reweighting scores once the
// truth arrives, and the mixed prediction the read was served. There is
// at most one per (target, h). An exact entry is also the step's memo:
// every later read of h before the next observation is served from it,
// so reads do not move the ensemble or the GP cells.
type pendingUpdate struct {
	target int // history index the prediction refers to
	h      int // the horizon it was made at
	preds  []CellPrediction
	mixed  Prediction
	exact  bool // false: a progressive answer, scored but never served again
}

// Pipeline is the per-sensor SMiLer engine: the Search Step (Suffix
// kNN Search on the index) feeding the Prediction Step (the ensemble
// of semi-lazy predictors), with the adaptive auto-tuning loop closed
// by Observe.
type Pipeline struct {
	ix        *index.Index
	ens       *Ensemble
	cfg       PipelineConfig
	pending   []pendingUpdate
	timing    PhaseTiming
	obsTiming ObserveTiming
	quality   QualityInfo
}

// QualityInfo describes the quality rung of the most recent Predict
// call on the exact → progressive → fallback ladder. The pipeline only
// ever produces the first two rungs; the serving layer adds "fallback"
// when it substitutes an AR(1) prediction for a failed search.
type QualityInfo struct {
	// Tag is "exact" (every candidate the filter kept was verified — the
	// result is the true kNN answer) or "progressive" (the deadline
	// stopped verification early and the result is the best-so-far set).
	Tag string
	// Estimate is the ProS-style probability that the progressive set
	// already equals the exact answer (1 for exact predictions).
	Estimate float64
}

// LastQuality reports the quality of the horizons the most recent
// Predict call computed (exact when it computed none).
func (p *Pipeline) LastQuality() QualityInfo { return p.quality }

// PhaseTiming reports where the last Predict call spent its time.
// SearchSec vs PredictSec is the two-way split Fig. 12 plots; the
// remaining fields break each side down further so the serving
// system's per-phase latency histograms see every stage of a
// prediction: the group-level lower-bound pass and the DTW
// verification inside the Search Step, and the per-cell model fits
// plus the ensemble mix inside the Prediction Step.
type PhaseTiming struct {
	// SearchSec is the whole Search Step (kNN retrieval).
	SearchSec float64
	// LowerBoundSec is the group-level LBen pass within the search
	// (wall clock; the threshold seeding and k-selection make up the
	// difference to SearchSec).
	LowerBoundSec float64
	// VerifySec is the exact banded-DTW verification within the search.
	VerifySec float64
	// PredictSec is the whole Prediction Step (model construction,
	// evaluation and mixing).
	PredictSec float64
	// CellFitSec is the time spent fitting and evaluating the awake
	// ensemble cells' predictors (GP training dominates here).
	CellFitSec float64
	// MixSec is the ensemble mixing time.
	MixSec float64
}

// ObserveTiming reports where the last Observe call spent its time:
// the self-adaptive reweighting of matured predictions vs the append to
// the index's history.
type ObserveTiming struct {
	ReweightSec float64
	AdvanceSec  float64
}

// NewPipeline builds a pipeline over an existing index. The index's
// ELV is the ensemble's length vector.
func NewPipeline(ix *index.Index, cfg PipelineConfig) (*Pipeline, error) {
	if ix == nil {
		return nil, errors.New("core: nil index")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: horizon %d must be positive", cfg.Horizon)
	}
	if len(cfg.EKV) == 0 {
		return nil, errors.New("core: empty EKV")
	}
	factory := cfg.Factory
	if factory == nil {
		factory = func() Predictor { return NewGP() }
	}
	ens, err := NewEnsemble(cfg.EKV, ix.Params().ELV, factory, cfg.Ensemble)
	if err != nil {
		return nil, err
	}
	return &Pipeline{ix: ix, ens: ens, cfg: cfg}, nil
}

// Index returns the underlying SMiLer index.
func (p *Pipeline) Index() *index.Index { return p.ix }

// Ensemble returns the ensemble (for inspection and tests).
func (p *Pipeline) Ensemble() *Ensemble { return p.ens }

// Predict runs one Search Step + Prediction Step for horizon h and
// returns the mixed posterior: the one-element case of PredictMulti.
func (p *Pipeline) Predict(h int) (Prediction, error) {
	return p.PredictTracedCtx(context.Background(), h, nil)
}

// PredictTracedCtx is the one-horizon case of PredictMultiTracedCtx.
func (p *Pipeline) PredictTracedCtx(ctx context.Context, h int, tr *obs.Trace) (Prediction, error) {
	out, err := p.PredictMultiTracedCtx(ctx, []int{h}, tr)
	return out[h], err
}

// progRoundSpanCap bounds how many per-round verify spans one trace
// records; deeper rounds collapse into a single tail span.
const progRoundSpanCap = 12

// recordSearch folds the search phase into the trace and the timing
// struct: the span covering the whole Search Step plus the index's
// wall-clock split of lower-bound production vs DTW verification and
// its kNN effectiveness counters. It also derives the prediction's
// quality rung from the search stats; a search that first had to catch
// the index up gets an index_catchup span, and one that staged more than
// one verification round gets one span per round.
func (p *Pipeline) recordSearch(tr *obs.Trace, searchStart time.Time) {
	st := p.ix.Stats()
	p.timing.LowerBoundSec = st.LowerBoundWallSeconds
	p.timing.VerifySec = st.VerifyWallSeconds
	q := QualityInfo{Tag: "exact", Estimate: 1}
	if st.Progressive {
		q = QualityInfo{Tag: "progressive", Estimate: st.ProbExact}
	}
	p.quality = q
	if tr == nil {
		return
	}
	searchDur := time.Duration(p.timing.SearchSec * float64(time.Second))
	base := searchStart
	tr.AddSpan("search", "", sinceTraceStart(tr, base), searchDur)
	if st.CatchupSteps > 0 || st.Rebuilt {
		dur := time.Duration(st.CatchupWallSeconds * float64(time.Second))
		tr.AddSpan("index_catchup", "steps="+strconv.Itoa(st.CatchupSteps)+" rebuilt="+strconv.FormatBool(st.Rebuilt),
			sinceTraceStart(tr, base), dur)
		base = base.Add(dur)
	}
	lbDur := time.Duration(st.LowerBoundWallSeconds * float64(time.Second))
	tr.AddSpan("lower_bound", "", sinceTraceStart(tr, base), lbDur)
	tr.AddSpan("verify", "", sinceTraceStart(tr, base.Add(lbDur)),
		time.Duration(st.VerifyWallSeconds*float64(time.Second)))
	if st.Rounds > 1 {
		at := base.Add(lbDur)
		for i, sec := range st.RoundWallSeconds {
			dur := time.Duration(sec * float64(time.Second))
			if i == progRoundSpanCap {
				// Collapse the tail so deep sweeps don't bloat the trace.
				var rest float64
				for _, s := range st.RoundWallSeconds[i:] {
					rest += s
				}
				tr.AddSpan("verify_round", "rounds "+strconv.Itoa(i+1)+".."+strconv.Itoa(len(st.RoundWallSeconds)),
					sinceTraceStart(tr, at), time.Duration(rest*float64(time.Second)))
				break
			}
			tr.AddSpan("verify_round", "round "+strconv.Itoa(i+1), sinceTraceStart(tr, at), dur)
			at = at.Add(dur)
		}
		tr.SetStat("progressive_rounds", float64(st.Rounds))
		tr.SetStat("verified_at_deadline", float64(st.VerifiedAtDeadline))
		tr.SetStat("quality_estimate", q.Estimate)
	}
	tr.SetStat("knn_candidates", float64(st.Candidates))
	tr.SetStat("knn_pruned", float64(st.Pruned()))
	tr.SetStat("knn_unfiltered", float64(st.Unfiltered))
	tr.SetStat("knn_sealed", float64(st.Sealed))
	tr.SetStat("knn_cascade_pruned", float64(st.CascadePruned))
	tr.SetStat("dtw_columns", float64(st.Columns))
	tr.SetStat("gpu_sim_seconds", st.LowerBoundSimSeconds+st.VerifySimSeconds)
}

// sinceTraceStart converts an absolute instant to a trace offset.
func sinceTraceStart(tr *obs.Trace, at time.Time) time.Duration {
	return at.Sub(tr.Start)
}

// mixTimed runs the ensemble mix under a span and the MixSec timer.
func (p *Pipeline) mixTimed(preds []CellPrediction, tr *obs.Trace) (Prediction, error) {
	end := tr.StartSpan("mix", "")
	mixStart := time.Now()
	mixed, err := p.ens.Mix(preds)
	p.timing.MixSec += time.Since(mixStart).Seconds()
	end()
	return mixed, err
}

// Timing reports the phase breakdown of the most recent Predict call.
func (p *Pipeline) Timing() PhaseTiming { return p.timing }

// LastObserveTiming reports the phase breakdown of the most recent
// Observe call.
func (p *Pipeline) LastObserveTiming() ObserveTiming { return p.obsTiming }

// PredictMulti is PredictMultiTracedCtx without a deadline or a trace.
func (p *Pipeline) PredictMulti(hs []int) (map[int]Prediction, error) {
	return p.PredictMultiTracedCtx(context.Background(), hs, nil)
}

// PredictMultiTracedCtx is the pipeline's one forecast path. A horizon
// whose exact answer this step already computed is served from the
// pending set: no search, no fit and no deadline check, so a read is
// idempotent between two observations. The other horizons share one
// Search Step (the index verifies each candidate segment at most once;
// the horizon only moves the label-validity mask) and get one
// Prediction Step each, in ascending order whatever the order given (a
// GP cell warm-starts each fit from its previous one, so the order is
// part of the answer). Each computed horizon's per-cell predictions are
// queued so that when the observation for its time step arrives via
// Observe, the ensemble weights adapt once per target and horizon: an
// exact computation replaces a progressive entry, and otherwise the
// first entry stays.
//
// When tr is non-nil, one span is recorded for the index search (with
// nested catch-up, lower-bound and verify spans from the index's own
// wall clocks),
// one per awake ensemble cell's model fit (carrying its horizon), and
// one per mix, plus the search's kNN effectiveness stats. A nil trace
// costs nothing.
//
// ctx budgets the Search Step on the exact → progressive → fallback
// ladder: a context that has expired before the search or expires
// during its lower-bound pass surfaces as ctx.Err() (the caller falls
// back); one that expires later stops the verification rounds and the
// search returns its best-so-far kNN sets. The post-search phases (GP
// fits on at most MaxK neighbours, the mix) are bounded and always run
// to completion — otherwise a deadline generous enough for a
// progressive search would still void its result one phase later.
// LastQuality reports the rung of the computed horizons (exact when
// every horizon was served from the pending set).
func (p *Pipeline) PredictMultiTracedCtx(ctx context.Context, hs []int, tr *obs.Trace) (map[int]Prediction, error) {
	if len(hs) == 0 {
		return nil, errors.New("core: empty horizon list")
	}
	for _, h := range hs {
		if h <= 0 {
			return nil, fmt.Errorf("core: horizon %d must be positive", h)
		}
	}
	p.timing = PhaseTiming{}
	p.quality = QualityInfo{Tag: "exact", Estimate: 1}
	out := make(map[int]Prediction, len(hs))
	for _, h := range hs {
		if pred, ok := p.Exact(h); ok {
			out[h] = pred
		}
	}
	// The horizons to compute, ascending and distinct: hs itself when it
	// already is and nothing was reused, so the common read allocates
	// nothing here.
	miss := hs
	if len(out) > 0 || !ascending(hs) {
		miss = nil
		for _, h := range hs {
			if _, ok := out[h]; !ok {
				miss = append(miss, h)
			}
		}
		slices.Sort(miss)
		miss = slices.Compact(miss)
	}
	if len(miss) == 0 {
		return out, nil
	}
	p.quality = QualityInfo{}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	searchStart := time.Now()
	resultsByH, err := p.ix.SearchMultiCtx(ctx, p.ens.MaxK(), miss)
	if err != nil {
		return nil, fmt.Errorf("core: search step failed: %w", err)
	}
	p.timing.SearchSec = time.Since(searchStart).Seconds()
	p.recordSearch(tr, searchStart)
	predictStart := time.Now()

	n := p.ix.Len()
	for _, h := range miss {
		byD := make(map[int]index.ItemResult, len(resultsByH[h]))
		for _, r := range resultsByH[h] {
			byD[r.D] = r
		}
		preds, err := p.cellPredictions(byD, h, n, tr)
		if err != nil {
			return nil, err
		}
		mixed, err := p.mixTimed(preds, tr)
		if err != nil {
			return nil, err
		}
		out[h] = mixed
		p.queueUpdate(pendingUpdate{target: n - 1 + h, h: h, preds: preds, mixed: mixed, exact: p.quality.Tag == "exact"})
	}
	p.timing.PredictSec = time.Since(predictStart).Seconds()
	return out, nil
}

// ascending reports whether hs is strictly increasing.
func ascending(hs []int) bool {
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			return false
		}
	}
	return true
}

// predColumn groups the awake cells of one ELV column (same item-query
// length d) with their slots in the output slice. Cells of one column
// consume nested prefixes of one sorted neighbor list, so the column is
// the unit of shared materialization and of parallel evaluation.
type predColumn struct {
	d     int
	item  index.ItemResult
	cells []*Cell
	slots []int
}

// spanRec is a trace span recorded off the hot path: obs.Trace is not
// goroutine-safe, so parallel column workers collect spans locally and
// the join appends them in deterministic column order.
type spanRec struct {
	name, detail string
	start        time.Time
	dur          time.Duration
}

// colOutcome is one column worker's result.
type colOutcome struct {
	fitSec float64
	spans  []spanRec
	err    error
}

// predictWorkers resolves the Prediction-Step pool size for a given
// column count.
func (p *Pipeline) predictWorkers(ncols int) int {
	w := p.cfg.PredictWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > ncols {
		w = ncols
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cellPredictions evaluates every awake ensemble cell on its kNN data
// for one horizon, recording one fit span per cell. Cells are grouped
// by column: each column materializes its neighbor segments, labels and
// Gram base once, and independent columns run on a bounded worker pool.
// Output order, timing sums and span order are deterministic and
// identical at any worker count.
func (p *Pipeline) cellPredictions(byD map[int]index.ItemResult, h, n int, tr *obs.Trace) ([]CellPrediction, error) {
	var cols []*predColumn
	byCol := make(map[int]*predColumn, len(byD))
	slots := 0
	for _, cell := range p.ens.Cells() {
		if cell.Sleeping() {
			continue
		}
		pc := byCol[cell.D]
		if pc == nil {
			item, ok := byD[cell.D]
			if !ok {
				return nil, fmt.Errorf("core: search returned no results for d=%d", cell.D)
			}
			pc = &predColumn{d: cell.D, item: item}
			byCol[cell.D] = pc
			cols = append(cols, pc)
		}
		pc.cells = append(pc.cells, cell)
		pc.slots = append(pc.slots, slots)
		slots++
	}
	if slots == 0 {
		return nil, nil
	}

	results := make([]CellPrediction, slots)
	valid := make([]bool, slots)
	outs := make([]colOutcome, len(cols))
	workers := p.predictWorkers(len(cols))
	if workers <= 1 {
		for i, pc := range cols {
			outs[i] = p.safePredictColumn(pc, h, n, tr != nil, results, valid)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cols) {
						return
					}
					outs[i] = p.safePredictColumn(cols[i], h, n, tr != nil, results, valid)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic join: first error by column order wins; fit seconds
	// and spans accumulate in column order regardless of completion
	// order, so traces and timings are stable under parallelism.
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
	}
	for i := range outs {
		p.timing.CellFitSec += outs[i].fitSec
		if tr != nil {
			for _, s := range outs[i].spans {
				tr.AddSpan(s.name, s.detail, s.start.Sub(tr.Start), s.dur)
			}
		}
	}
	preds := make([]CellPrediction, 0, slots)
	for i := range results {
		if valid[i] {
			preds = append(preds, results[i])
		}
	}
	return preds, nil
}

// safePredictColumn runs predictColumn with a panic guard: a panic in
// any predictor (a numerical pathology or an injected fault) is
// recovered into an ErrPanicked-wrapped error on the column's outcome
// instead of crossing the worker-goroutine boundary and killing the
// process.
func (p *Pipeline) safePredictColumn(pc *predColumn, h, n int, traced bool, results []CellPrediction, valid []bool) (out colOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%w: column d=%d h=%d: %v", ErrPanicked, pc.d, h, r)
		}
	}()
	return p.predictColumn(pc, h, n, traced, results, valid)
}

// predictColumn evaluates one column's cells: neighbor segments and
// labels are materialized once at the column's largest usable k, every
// cell takes a prefix, and GP cells share the column's Gram base. Runs
// on the worker pool — it must not touch the trace, the timing struct
// or any other column's slots.
func (p *Pipeline) predictColumn(pc *predColumn, h, n int, traced bool, results []CellPrediction, valid []bool) colOutcome {
	var out colOutcome
	neighbors := pc.item.Neighbors
	if len(neighbors) == 0 {
		return out // every cell of the column is skipped
	}
	kmax := 0
	for _, c := range pc.cells {
		if c.K > kmax {
			kmax = c.K
		}
	}
	if kmax > len(neighbors) {
		kmax = len(neighbors)
	}
	d := pc.d
	// One pooled slab backs the neighbor segments, labels and query:
	// kmax rows of d values, then kmax labels, then the d-length query.
	// Everything handed to gp below subslices this buffer; the end of
	// this column (all cells done, nothing retained) is the
	// deterministic join point where it returns to the pool.
	flat := memsys.GetFloats(kmax*d + kmax + d)
	defer memsys.PutFloats(flat)
	x := make([][]float64, kmax)
	y := flat[kmax*d : kmax*d+kmax]
	for i := 0; i < kmax; i++ {
		seg := flat[i*d : (i+1)*d]
		t := neighbors[i].T
		for j := 0; j < d; j++ {
			seg[j] = p.ix.Value(t + j)
		}
		x[i] = seg
		y[i] = p.ix.Value(t + d - 1 + h)
	}
	x0 := flat[kmax*d+kmax:]
	for j := 0; j < d; j++ {
		x0[j] = p.ix.Value(n - d + j)
	}

	// The shared Gram base is only worth building when a predictor can
	// consume it (pure-AR ensembles skip the O(k²d) construction).
	var col *gp.Column
	defer func() { col.Release() }() // nil-safe; after the last cell of the column
	for _, c := range pc.cells {
		if _, ok := c.Pred.(ColumnPredictor); ok {
			var err error
			col, err = gp.NewColumn(x0, x, y)
			if err != nil {
				out.err = fmt.Errorf("core: column d=%d: %w", d, err)
				return out
			}
			break
		}
	}

	fitCell := func(ci int) error {
		cell := pc.cells[ci]
		k := cell.K
		if k > kmax {
			k = kmax
		}
		fitStart := time.Now()
		var pr Prediction
		var err error
		if cp, ok := cell.Pred.(ColumnPredictor); ok {
			pr, err = cp.PredictColumn(col, k)
		} else {
			pr, err = cell.Pred.Predict(x0, x[:k], y[:k])
		}
		dur := time.Since(fitStart)
		out.fitSec += dur.Seconds()
		if traced {
			// Span details are concatenated, not fmt.Sprintf'd, here and in
			// recordSearch: fmt takes its printer from a sync.Pool that
			// every GC empties, so a forecast's allocation count would
			// depend on where the GCs fell, and BenchmarkContinuousGPLoop's
			// allocs/op is a gated count.
			out.spans = append(out.spans, spanRec{
				name:   strings.ToLower(cell.Pred.Name()) + "_fit",
				detail: "k=" + strconv.Itoa(cell.K) + " d=" + strconv.Itoa(cell.D) + " h=" + strconv.Itoa(h),
				start:  fitStart,
				dur:    dur,
			})
		}
		if err != nil {
			return fmt.Errorf("core: predictor (k=%d,d=%d) failed: %w", cell.K, cell.D, err)
		}
		results[pc.slots[ci]] = CellPrediction{Cell: cell, Pred: pr}
		valid[pc.slots[ci]] = true
		return nil
	}
	// A cold column pays for one fit: its median-k cold GP cell runs the
	// full optimization first, and every other cold GP cell of the
	// column starts from that fit with the online budget.
	pivot := coldPivot(pc.cells)
	if pivot >= 0 {
		if out.err = fitCell(pivot); out.err != nil {
			return out
		}
		fitted := pc.cells[pivot].Pred.(*GPPredictor).Hyper()
		for _, c := range pc.cells {
			if g, ok := c.Pred.(*GPPredictor); ok && g.cold() {
				g.seed(fitted)
			}
		}
	}
	for ci := range pc.cells {
		if ci == pivot {
			continue
		}
		if out.err = fitCell(ci); out.err != nil {
			return out
		}
	}
	return out
}

// coldPivot returns the index in cells of the column's median-k cold GP
// cell (the upper median of an even count), or -1 when fewer than two
// GP cells are cold: a lone cold cell has no one to share its fit with.
func coldPivot(cells []*Cell) int {
	var cold []int
	for i, c := range cells {
		if g, ok := c.Pred.(*GPPredictor); ok && g.cold() {
			cold = append(cold, i)
		}
	}
	if len(cold) < 2 {
		return -1
	}
	sort.SliceStable(cold, func(a, b int) bool { return cells[cold[a]].K < cells[cold[b]].K })
	return cold[len(cold)/2]
}

// Observe feeds the next observation into the pipeline: it appends it
// to the index's history (the next forecast catches the window level
// up), then closes the auto-tuning loop for any prediction whose target
// time step this observation is. The append goes first so an
// observation the index refuses consumes no pending update.
func (p *Pipeline) Observe(v float64) error {
	t := p.ix.Len() // index the new observation will occupy
	advanceStart := time.Now()
	err := p.ix.Advance(v)
	reweightStart := time.Now()
	p.obsTiming = ObserveTiming{AdvanceSec: reweightStart.Sub(advanceStart).Seconds()}
	if err != nil {
		return err
	}
	kept := p.pending[:0]
	for _, pu := range p.pending {
		switch {
		case pu.target == t:
			p.ens.Update(pu.preds, v)
		case pu.target > t:
			kept = append(kept, pu)
		}
		// Targets below t are stale (already matched or skipped).
	}
	p.pending = kept
	p.obsTiming.ReweightSec = time.Since(reweightStart).Seconds()
	return nil
}

// queueUpdate queues pu unless an update for its target and horizon is
// already waiting; an exact pu replaces a waiting one (which can only
// be progressive: an exact entry is served, never recomputed).
func (p *Pipeline) queueUpdate(pu pendingUpdate) {
	for i, q := range p.pending {
		if q.target == pu.target && q.h == pu.h {
			if pu.exact {
				p.pending[i] = pu
			}
			return
		}
	}
	p.pending = append(p.pending, pu)
}

// Exact returns the exact answer at horizon h that a read computed
// since the last observation, if there is one.
func (p *Pipeline) Exact(h int) (Prediction, bool) {
	target := p.ix.Len() - 1 + h
	for _, pu := range p.pending {
		if pu.target == target && pu.h == h && pu.exact {
			return pu.mixed, true
		}
	}
	return Prediction{}, false
}

// PendingUpdates reports how many predictions still await their truth.
func (p *Pipeline) PendingUpdates() int { return len(p.pending) }

// PendingState is one queued answer as a checkpoint carries it, its
// cells named by (K, D).
type PendingState struct {
	Target, H int
	Exact     bool // false: progressive
	Mixed     Prediction
	Cells     []PendingCell
}

// PendingCell is one cell's prediction in a PendingState.
type PendingCell struct {
	K, D int
	Pred Prediction
}

// ExportPending captures the pending set in queue order.
func (p *Pipeline) ExportPending() []PendingState {
	if len(p.pending) == 0 {
		return nil
	}
	out := make([]PendingState, len(p.pending))
	for i, pu := range p.pending {
		out[i] = PendingState{Target: pu.target, H: pu.h, Exact: pu.exact, Mixed: pu.mixed}
		if len(pu.preds) > 0 {
			out[i].Cells = make([]PendingCell, len(pu.preds))
			for j, cp := range pu.preds {
				out[i].Cells[j] = PendingCell{K: cp.Cell.K, D: cp.Cell.D, Pred: cp.Pred}
			}
		}
	}
	return out
}

// ImportPending replaces the pending set with one ExportPending
// captured. Cell predictions are matched to cells by (K, D); one that
// names no cell is dropped, as ImportState drops an unknown state.
func (p *Pipeline) ImportPending(states []PendingState) {
	p.pending = p.pending[:0]
	for _, ps := range states {
		pu := pendingUpdate{target: ps.Target, h: ps.H, mixed: ps.Mixed, exact: ps.Exact}
		if len(ps.Cells) > 0 {
			pu.preds = make([]CellPrediction, 0, len(ps.Cells))
		}
		for _, pc := range ps.Cells {
			for _, c := range p.ens.cells {
				if c.K == pc.K && c.D == pc.D {
					pu.preds = append(pu.preds, CellPrediction{Cell: c, Pred: pc.Pred})
					break
				}
			}
		}
		p.queueUpdate(pu)
	}
}

// DropPendingFor discards any queued auto-tuning update whose target
// is the given history index — used when the observation for that step
// will never arrive (missing readings imputed by the system itself
// must not be scored as truth).
func (p *Pipeline) DropPendingFor(target int) {
	kept := p.pending[:0]
	for _, pu := range p.pending {
		if pu.target != target {
			kept = append(kept, pu)
		}
	}
	p.pending = kept
}
