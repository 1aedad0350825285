package bench

import (
	"fmt"

	"smiler/internal/baselines"
	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// Fig12Row is one bar pair of Fig. 12(a)/(b): the total per-step time
// of all sensors, split into the Search Step and the Prediction Step.
type Fig12Row struct {
	Dataset    string
	Method     string // SMiLer-AR or SMiLer-GP
	SearchSec  float64
	PredictSec float64
}

// RunFig12Time measures the search/prediction split per step (summed
// over all sensors) for SMiLer-AR and SMiLer-GP.
func RunFig12Time(c *Corpus, steps int) ([]Fig12Row, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	var rows []Fig12Row
	for _, variant := range []string{MSMiLerAR, MSMiLerGP} {
		dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
		var searchSec, predictSec float64
		for si, z := range c.Series {
			avail := len(z) - c.Spec.Warm - 1
			n := steps
			if n > avail {
				n = avail
			}
			pipe, err := smilerPipeline(dev, z[:c.Spec.Warm], variant)
			if err != nil {
				return nil, err
			}
			for t := 0; t < n; t++ {
				if _, err := pipe.Predict(1); err != nil {
					pipe.Index().Close()
					return nil, err
				}
				tm := pipe.Timing()
				searchSec += tm.SearchSec
				predictSec += tm.PredictSec
				if err := pipe.Observe(z[c.Spec.Warm+t]); err != nil {
					pipe.Index().Close()
					return nil, err
				}
			}
			pipe.Index().Close()
			_ = si
		}
		rows = append(rows, Fig12Row{
			Dataset:    c.Spec.Name,
			Method:     variant,
			SearchSec:  searchSec / float64(steps),
			PredictSec: predictSec / float64(steps),
		})
	}
	return rows, nil
}

// Fig12Capacity answers Fig. 12(c): how many sensors of this corpus'
// per-sensor footprint fit in the device's memory. The footprint is
// read off a real index over the first sensor (the history plus the
// window level, Index.MemoryFootprint).
func Fig12Capacity(c *Corpus, devCfg gpusim.Config) (perSensorBytes int64, maxSensors int64, err error) {
	if len(c.Series) == 0 {
		return 0, 0, fmt.Errorf("bench: empty corpus")
	}
	dev := gpusim.MustNewDevice(devCfg)
	ix, err := index.New(dev, c.Series[0], searchParams())
	if err != nil {
		return 0, 0, err
	}
	defer ix.Close()
	perSensorBytes = ix.MemoryFootprint().Total()
	if perSensorBytes <= 0 {
		return 0, 0, fmt.Errorf("bench: non-positive footprint")
	}
	maxSensors = devCfg.GlobalMemBytes / perSensorBytes
	return perSensorBytes, maxSensors, nil
}

// Fig13Row is one x-position of Fig. 13: PSGP with m active points —
// its per-sensor training time and MAE — against the SMiLer-GP MAE
// reference on the same sensors.
type Fig13Row struct {
	Dataset      string
	ActivePoints int
	TrainSecPer  float64 // average training seconds per sensor
	PSGPMae      float64
	SMiLerGPMae  float64
}

// RunFig13 sweeps the PSGP active-point count at h=1 and reports the
// accuracy/time trade-off with the SMiLer-GP reference line.
func RunFig13(c *Corpus, activePoints []int) ([]Fig13Row, error) {
	if len(activePoints) == 0 {
		return nil, fmt.Errorf("bench: empty active point list")
	}
	hs := []int{1}
	ref, _, err := RunAccuracy(c, []string{MSMiLerGP}, hs)
	if err != nil {
		return nil, err
	}
	refMAE := ref[0].MAE

	var rows []Fig13Row
	for _, m := range activePoints {
		accs := newAccs(hs)
		var trainSec float64
		sensors := 0
		for _, z := range c.Series {
			steps := c.TestLen(z, 1)
			if steps == 0 {
				continue
			}
			sensors++
			x, y, err := baselines.SegmentDataset(z[:c.Spec.Warm], segLen, 1, 0)
			if err != nil {
				return nil, err
			}
			reg := baselines.NewPSGP(m)
			timer := StartTimer()
			if err := reg.Train(x, y); err != nil {
				return nil, err
			}
			trainSec += timer.Seconds()
			for t := 0; t < steps; t++ {
				now := c.Spec.Warm + t
				p, err := reg.Predict(z[now-segLen : now])
				if err != nil {
					return nil, err
				}
				if err := accs[1].AddProb(p.Mean, p.Variance, z[now]); err != nil {
					return nil, err
				}
			}
		}
		mae, err := accs[1].MAE()
		if err != nil {
			return nil, err
		}
		if sensors == 0 {
			return nil, fmt.Errorf("bench: no usable sensors")
		}
		rows = append(rows, Fig13Row{
			Dataset:      c.Spec.Name,
			ActivePoints: m,
			TrainSecPer:  trainSec / float64(sensors),
			PSGPMae:      mae,
			SMiLerGPMae:  refMAE,
		})
	}
	return rows, nil
}

// AblationCost is one arm of an ablation: wall-clock seconds for the
// printed report, and the simulated device cycles the same work was
// charged — reproducible to the cycle (docs/GPUSIM.md), so the one a
// test may compare.
type AblationCost struct {
	Sec    float64
	Cycles float64
}

// AblationContinuousReuse compares the incremental window-level update
// (Remark 1) against rebuilding the index from scratch on every step —
// one of the DESIGN.md ablations.
func AblationContinuousReuse(c *Corpus, steps int) (reuse, rebuild AblationCost, err error) {
	if steps <= 0 {
		return reuse, rebuild, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	p := searchParams()
	z := c.Series[0]
	if len(z) < c.Spec.Warm+steps {
		steps = len(z) - c.Spec.Warm
	}
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	arm := func(step func(*index.Index, float64) error) (AblationCost, error) {
		ix, err := builtIndex(dev, z[:c.Spec.Warm], p)
		if err != nil {
			return AblationCost{}, err
		}
		defer ix.Close()
		dev.ResetTimer() // cost the maintenance, not the construction
		t := StartTimer()
		for s := 0; s < steps; s++ {
			if err := step(ix, z[c.Spec.Warm+s]); err != nil {
				return AblationCost{}, err
			}
		}
		return AblationCost{Sec: t.Seconds(), Cycles: dev.Profile().TotalCycles()}, nil
	}
	if reuse, err = arm(advance); err != nil {
		return reuse, rebuild, err
	}
	rebuild, err = arm((*index.Index).AdvanceRebuild)
	return reuse, rebuild, err
}
