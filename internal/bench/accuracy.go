package bench

import (
	"fmt"

	"smiler/internal/baselines"
	"smiler/internal/core"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/metrics"
)

// Method names for the prediction experiments (Figs. 9–11, Table 4).
const (
	MSMiLerGP   = "SMiLer-GP"
	MSMiLerAR   = "SMiLer-AR"
	MSMiLerNEGP = "SMiLerNE-GP" // no ensemble (single k=32, d=64 cell)
	MSMiLerNEAR = "SMiLerNE-AR"
	MSMiLerNSGP = "SMiLerNS-GP" // ensemble without self-adaptive weights
	MSMiLerNSAR = "SMiLerNS-AR"
	MPSGP       = "PSGP"
	MVLGP       = "VLGP"
	MNysSVR     = "NysSVR"
	MSgdSVR     = "SgdSVR"
	MSgdRR      = "SgdRR"
	MLazyKNN    = "LazyKNN"
	MFullHW     = "FullHW"
	MSegHW      = "SegHW"
	MOnlineSVR  = "OnlineSVR"
	MOnlineRR   = "OnlineRR"
)

// OfflineMethods are the eager-learning competitors of Fig. 9.
func OfflineMethods() []string {
	return []string{MSMiLerGP, MSMiLerAR, MPSGP, MVLGP, MNysSVR, MSgdSVR, MSgdRR}
}

// OnlineMethods are the streaming competitors of Fig. 10.
func OnlineMethods() []string {
	return []string{MSMiLerGP, MSMiLerAR, MLazyKNN, MFullHW, MSegHW, MOnlineSVR, MOnlineRR}
}

// AblationMethods are the auto-tuning variants of Fig. 11.
func AblationMethods() []string {
	return []string{MSMiLerGP, MSMiLerNEGP, MSMiLerNSGP, MSMiLerAR, MSMiLerNEAR, MSMiLerNSAR}
}

// AllMethods is the Table 4 method list.
func AllMethods() []string {
	return []string{
		MSMiLerGP, MSMiLerAR, MFullHW, MSegHW, MLazyKNN,
		MPSGP, MVLGP, MNysSVR, MSgdSVR, MSgdRR, MOnlineSVR, MOnlineRR,
	}
}

// segLen is the input window length the non-SMiLer competitors use
// (SMiLerNE's fixed d=64; Section 6.3.3).
const segLen = 64

// AccuracyRow is one point of Figs. 9–11: a method's MAE and MNLPD at
// one horizon on one dataset.
type AccuracyRow struct {
	Dataset string
	Method  string
	H       int
	MAE     float64
	MNLPD   float64
	// Coverage95 is the empirical coverage of the central 95%
	// predictive interval (≈0.95 when calibrated).
	Coverage95 float64
	Samples    int
}

// TimingRow is one row of Table 4: total training time and average
// per-query prediction time of a method on one dataset.
type TimingRow struct {
	Dataset   string
	Method    string
	TrainSec  float64 // total training wall time (0 for training-free)
	PredictMs float64 // average prediction time per sensor per query
}

// RunAccuracy evaluates the given methods on the corpus at the given
// horizons, returning accuracy rows (per method × horizon) and timing
// rows (per method).
func RunAccuracy(c *Corpus, methods []string, hs []int) ([]AccuracyRow, []TimingRow, error) {
	if len(hs) == 0 {
		return nil, nil, fmt.Errorf("bench: empty horizon list")
	}
	var rows []AccuracyRow
	var timings []TimingRow
	for _, m := range methods {
		accs, trainSec, predictMs, err := runMethod(c, m, hs)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: method %s: %w", m, err)
		}
		for _, h := range hs {
			acc := accs[h]
			mae, err := acc.MAE()
			if err != nil {
				return nil, nil, fmt.Errorf("bench: method %s h=%d: %w", m, h, err)
			}
			mnlpd, err := acc.MNLPD()
			if err != nil {
				return nil, nil, fmt.Errorf("bench: method %s h=%d: %w", m, h, err)
			}
			cov, err := acc.Coverage95()
			if err != nil {
				return nil, nil, fmt.Errorf("bench: method %s h=%d: %w", m, h, err)
			}
			rows = append(rows, AccuracyRow{
				Dataset: c.Spec.Name, Method: m, H: h,
				MAE: mae, MNLPD: mnlpd, Coverage95: cov, Samples: acc.N(),
			})
		}
		timings = append(timings, TimingRow{
			Dataset: c.Spec.Name, Method: m, TrainSec: trainSec, PredictMs: predictMs,
		})
	}
	return rows, timings, nil
}

func maxOf(hs []int) int {
	m := hs[0]
	for _, h := range hs {
		if h > m {
			m = h
		}
	}
	return m
}

func newAccs(hs []int) map[int]*metrics.Accumulator {
	accs := make(map[int]*metrics.Accumulator, len(hs))
	for _, h := range hs {
		accs[h] = &metrics.Accumulator{}
	}
	return accs
}

// runMethod dispatches one method over every sensor of the corpus.
func runMethod(c *Corpus, m string, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	switch m {
	case MSMiLerGP, MSMiLerAR, MSMiLerNEGP, MSMiLerNEAR, MSMiLerNSGP, MSMiLerNSAR:
		return runSMiLer(c, m, hs)
	case MPSGP, MVLGP, MNysSVR, MSgdSVR, MSgdRR:
		return runOffline(c, m, hs)
	case MLazyKNN:
		return runLazyKNN(c, hs)
	case MFullHW, MSegHW:
		return runHoltWinters(c, m, hs)
	case MOnlineSVR, MOnlineRR:
		return runOnlineLinear(c, m, hs)
	}
	return nil, 0, 0, fmt.Errorf("unknown method %q", m)
}

// smilerPipeline builds the pipeline for a SMiLer variant on one
// sensor history.
func smilerPipeline(dev *gpusim.Device, hist []float64, variant string) (*core.Pipeline, error) {
	p := index.DefaultParams()
	ekv := []int{8, 16, 32}
	ecfg := core.EnsembleConfig{}
	switch variant {
	case MSMiLerNEGP, MSMiLerNEAR:
		p.ELV = []int{segLen}
		ekv = []int{32}
	case MSMiLerNSGP, MSMiLerNSAR:
		ecfg = core.EnsembleConfig{DisableAdaptation: true, DisableSleep: true}
	}
	var factory core.PredictorFactory
	switch variant {
	case MSMiLerAR, MSMiLerNEAR, MSMiLerNSAR:
		factory = func() core.Predictor { return core.NewAR() }
	default:
		factory = func() core.Predictor { return core.NewGP() }
	}
	ix, err := builtIndex(dev, hist, p)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(ix, core.PipelineConfig{
		EKV: ekv, Index: p, Horizon: 1, Factory: factory, Ensemble: ecfg,
	})
}

func runSMiLer(c *Corpus, variant string, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	accs := newAccs(hs)
	maxH := maxOf(hs)
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	var predictSec float64
	var queries int
	for si, z := range c.Series {
		steps := c.TestLen(z, maxH)
		if steps == 0 {
			continue
		}
		pipe, err := smilerPipeline(dev, z[:c.Spec.Warm], variant)
		if err != nil {
			return nil, 0, 0, err
		}
		for t := 0; t < steps; t++ {
			now := c.Spec.Warm + t // next observation index
			timer := StartTimer()
			// One shared Search Step across all horizons (SearchMulti):
			// the same protocol as repeated Predict calls, minus the
			// redundant candidate verifications.
			preds, err := pipe.PredictMulti(hs)
			if err != nil {
				pipe.Index().Close()
				return nil, 0, 0, err
			}
			predictSec += timer.Seconds()
			queries += len(hs)
			for _, h := range hs {
				truth := z[now-1+h]
				if err := accs[h].AddProb(preds[h].Mean, preds[h].Variance, truth); err != nil {
					pipe.Index().Close()
					return nil, 0, 0, err
				}
			}
			if err := pipe.Observe(z[now]); err != nil {
				pipe.Index().Close()
				return nil, 0, 0, err
			}
		}
		pipe.Index().Close()
		_ = si
	}
	return accs, 0, predictMsPerQuery(predictSec, queries), nil
}

func predictMsPerQuery(sec float64, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return sec / float64(queries) * 1e3
}

func offlineRegressor(m string) baselines.Regressor {
	switch m {
	case MPSGP:
		return baselines.NewPSGP(32)
	case MVLGP:
		return baselines.NewVLGP(32)
	case MNysSVR:
		return baselines.NewNysSVR(128)
	case MSgdSVR:
		return baselines.NewSgdSVR()
	default:
		return baselines.NewSgdRR()
	}
}

func runOffline(c *Corpus, m string, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	accs := newAccs(hs)
	maxH := maxOf(hs)
	var trainSec, predictSec float64
	var queries int
	for _, z := range c.Series {
		steps := c.TestLen(z, maxH)
		if steps == 0 {
			continue
		}
		warm := z[:c.Spec.Warm]
		models := make(map[int]baselines.Regressor, len(hs))
		for _, h := range hs {
			x, y, err := baselines.SegmentDataset(warm, segLen, h, 0)
			if err != nil {
				return nil, 0, 0, err
			}
			reg := offlineRegressor(m)
			timer := StartTimer()
			if err := reg.Train(x, y); err != nil {
				return nil, 0, 0, err
			}
			trainSec += timer.Seconds()
			models[h] = reg
		}
		for t := 0; t < steps; t++ {
			now := c.Spec.Warm + t
			probe := z[now-segLen : now]
			for _, h := range hs {
				timer := StartTimer()
				p, err := models[h].Predict(probe)
				if err != nil {
					return nil, 0, 0, err
				}
				predictSec += timer.Seconds()
				queries++
				if err := accs[h].AddProb(p.Mean, p.Variance, z[now-1+h]); err != nil {
					return nil, 0, 0, err
				}
			}
		}
	}
	return accs, trainSec, predictMsPerQuery(predictSec, queries), nil
}

func runLazyKNN(c *Corpus, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	accs := newAccs(hs)
	maxH := maxOf(hs)
	l := baselines.NewLazyKNN()
	var predictSec float64
	var queries int
	for _, z := range c.Series {
		steps := c.TestLen(z, maxH)
		for t := 0; t < steps; t++ {
			now := c.Spec.Warm + t
			hist := z[:now]
			for _, h := range hs {
				timer := StartTimer()
				p, err := l.Predict(hist, h)
				if err != nil {
					return nil, 0, 0, err
				}
				predictSec += timer.Seconds()
				queries++
				if err := accs[h].AddProb(p.Mean, p.Variance, z[now-1+h]); err != nil {
					return nil, 0, 0, err
				}
			}
		}
	}
	return accs, 0, predictMsPerQuery(predictSec, queries), nil
}

func runHoltWinters(c *Corpus, m string, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	accs := newAccs(hs)
	maxH := maxOf(hs)
	period := c.Spec.Gen.Kind.SamplesPerDay()
	var predictSec float64
	var queries int
	for _, z := range c.Series {
		steps := c.TestLen(z, maxH)
		for t := 0; t < steps; t++ {
			now := c.Spec.Warm + t
			var hw *baselines.HoltWinters
			if m == MFullHW {
				hw = baselines.NewFullHW(period)
			} else {
				hw = baselines.NewSegHW(period, 10)
			}
			timer := StartTimer()
			if err := hw.Fit(z[:now]); err != nil {
				return nil, 0, 0, err
			}
			for _, h := range hs {
				p, err := hw.Forecast(h)
				if err != nil {
					return nil, 0, 0, err
				}
				queries++
				if err := accs[h].AddProb(p.Mean, p.Variance, z[now-1+h]); err != nil {
					return nil, 0, 0, err
				}
			}
			predictSec += timer.Seconds()
		}
	}
	return accs, 0, predictMsPerQuery(predictSec, queries), nil
}

func runOnlineLinear(c *Corpus, m string, hs []int) (map[int]*metrics.Accumulator, float64, float64, error) {
	accs := newAccs(hs)
	maxH := maxOf(hs)
	var trainSec, predictSec float64
	var queries int
	for _, z := range c.Series {
		steps := c.TestLen(z, maxH)
		if steps == 0 {
			continue
		}
		warm := z[:c.Spec.Warm]
		models := make(map[int]baselines.OnlineRegressor, len(hs))
		timer := StartTimer()
		for _, h := range hs {
			var reg baselines.OnlineRegressor
			if m == MOnlineSVR {
				reg = baselines.NewOnlineSVR()
			} else {
				reg = baselines.NewOnlineRR()
			}
			x, y, err := baselines.SegmentDataset(warm, segLen, h, 0)
			if err != nil {
				return nil, 0, 0, err
			}
			for i := range x { // one-pass warm-up
				if err := reg.Update(x[i], y[i]); err != nil {
					return nil, 0, 0, err
				}
			}
			models[h] = reg
		}
		trainSec += timer.Seconds()
		for t := 0; t < steps; t++ {
			now := c.Spec.Warm + t
			probe := z[now-segLen : now]
			for _, h := range hs {
				timer := StartTimer()
				p, err := models[h].Predict(probe)
				if err != nil {
					return nil, 0, 0, err
				}
				predictSec += timer.Seconds()
				queries++
				if err := accs[h].AddProb(p.Mean, p.Variance, z[now-1+h]); err != nil {
					return nil, 0, 0, err
				}
				// The pair that matured with the latest observation
				// keeps the model adapting (one-pass online fashion).
				if lbl := now - 1; lbl-h-segLen+1 >= 0 {
					seg := z[lbl-h-segLen+1 : lbl-h+1]
					if err := models[h].Update(seg, z[lbl]); err != nil {
						return nil, 0, 0, err
					}
				}
			}
		}
	}
	return accs, trainSec, predictMsPerQuery(predictSec, queries), nil
}
