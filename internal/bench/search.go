package bench

import (
	"fmt"
	"math"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/scan"
)

func dtwDistance(q, c []float64, rho int) (float64, error) {
	return dtw.DistanceCompressed(q, c, rho, nil)
}

func posInf() float64 { return math.Inf(1) }

// SearchMethod names a Suffix-kNN-search implementation under test.
type SearchMethod string

// The methods of Fig. 7 / Fig. 8.
const (
	MethodSMiLerIdx   SearchMethod = "SMiLer-Idx"
	MethodSMiLerDir   SearchMethod = "SMiLer-Dir"
	MethodFastGPUScan SearchMethod = "FastGPUScan"
	MethodGPUScan     SearchMethod = "GPUScan"
	MethodFastCPUScan SearchMethod = "FastCPUScan"
)

// Fig7Row is one point of Fig. 7: the total time of the Suffix kNN
// Search for all sensors per continuous query step.
type Fig7Row struct {
	Dataset string
	Method  SearchMethod
	K       int
	WallSec float64 // measured wall-clock seconds per step (all sensors)
	SimSec  float64 // simulated GPU seconds per step (0 for CPU scan)
	Steps   int
	Sensors int
}

// searchParams are the paper's defaults (Table 2).
func searchParams() index.Params { return index.DefaultParams() }

// RunFig7 measures the Suffix kNN Search for each method and each k
// over `steps` continuous query steps on the corpus.
func RunFig7(c *Corpus, ks []int, steps int, methods []SearchMethod) ([]Fig7Row, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	p := searchParams()
	var rows []Fig7Row
	for _, k := range ks {
		for _, m := range methods {
			wall, sim, err := runSearchMethod(c, p, m, k, steps)
			if err != nil {
				return nil, fmt.Errorf("bench: %s k=%d: %w", m, k, err)
			}
			rows = append(rows, Fig7Row{
				Dataset: c.Spec.Name, Method: m, K: k,
				WallSec: wall / float64(steps), SimSec: sim / float64(steps),
				Steps: steps, Sensors: len(c.Series),
			})
		}
	}
	return rows, nil
}

// builtIndex creates an index and builds its window level. The index
// maintains that level lazily — New and Advance only record history, the
// next search pays — so the experiments, which time steady-state steps
// and not construction, build it up front.
func builtIndex(dev *gpusim.Device, hist []float64, p index.Params) (*index.Index, error) {
	ix, err := index.New(dev, hist, p)
	if err != nil {
		return nil, err
	}
	if err := ix.Sync(); err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// advance feeds one observation and brings the window level up to date:
// the per-step index maintenance of Remark 1, done where the experiment
// means to time (or not time) it rather than inside the next search.
func advance(ix *index.Index, v float64) error {
	if err := ix.Advance(v); err != nil {
		return err
	}
	return ix.Sync()
}

// runSearchMethod executes one (method, k) cell: `steps` continuous
// suffix searches over every sensor, returning total wall and
// simulated seconds.
func runSearchMethod(c *Corpus, p index.Params, m SearchMethod, k, steps int) (wall, sim float64, err error) {
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	const h = 1
	switch m {
	case MethodSMiLerIdx:
		var ixs []*index.Index
		for _, s := range c.Series {
			ix, err := builtIndex(dev, s[:c.Spec.Warm], p)
			if err != nil {
				return 0, 0, err
			}
			defer ix.Close()
			ixs = append(ixs, ix)
		}
		for step := 0; step < steps; step++ {
			for si, ix := range ixs {
				next := c.Series[si][c.Spec.Warm+step]
				t := StartTimer()
				dev.ResetTimer()
				if err := advance(ix, next); err != nil {
					return 0, 0, err
				}
				if _, err := ix.Search(k, h); err != nil {
					return 0, 0, err
				}
				wall += t.Seconds()
				sim += dev.SimSeconds()
			}
		}
		return wall, sim, nil

	case MethodSMiLerDir:
		for si := range c.Series {
			for step := 0; step < steps; step++ {
				hist := c.Series[si][:c.Spec.Warm+step+1]
				t := StartTimer()
				dev.ResetTimer()
				bounds, _, err := scan.DirLBen(dev, hist, p.ELV, p.Rho, h)
				if err != nil {
					return 0, 0, err
				}
				for i, d := range p.ELV {
					q := hist[len(hist)-d:]
					if _, err := verifySelect(dev, hist, q, p.Rho, k, bounds[i]); err != nil {
						return 0, 0, err
					}
				}
				wall += t.Seconds()
				sim += dev.SimSeconds()
			}
		}
		return wall, sim, nil

	case MethodFastGPUScan, MethodGPUScan:
		for si := range c.Series {
			for step := 0; step < steps; step++ {
				hist := c.Series[si][:c.Spec.Warm+step+1]
				t := StartTimer()
				dev.ResetTimer()
				for _, d := range p.ELV {
					q := hist[len(hist)-d:]
					var err error
					if m == MethodFastGPUScan {
						_, err = scan.FastGPUScan(dev, hist, q, p.Rho, k, h)
					} else {
						_, err = scan.GPUScan(dev, hist, q, k, h)
					}
					if err != nil {
						return 0, 0, err
					}
				}
				wall += t.Seconds()
				sim += dev.SimSeconds()
			}
		}
		return wall, sim, nil

	case MethodFastCPUScan:
		for si := range c.Series {
			for step := 0; step < steps; step++ {
				hist := c.Series[si][:c.Spec.Warm+step+1]
				t := StartTimer()
				for _, d := range p.ELV {
					q := hist[len(hist)-d:]
					if _, _, err := scan.FastCPUScan(hist, q, p.Rho, k, h); err != nil {
						return 0, 0, err
					}
				}
				wall += t.Seconds()
			}
		}
		return wall, 0, nil
	}
	return 0, 0, fmt.Errorf("bench: unknown search method %q", m)
}

// verifySelect is the filter/verify/select tail used by the
// SMiLer-Dir strawman: threshold from the k smallest bounds, exact
// DTW on survivors, block k-selection.
func verifySelect(dev *gpusim.Device, hist, query []float64, rho, k int, bounds []float64) ([]scan.Result, error) {
	if len(bounds) == 0 {
		return nil, nil
	}
	var seeds []gpusim.KSelectResult
	if err := dev.Launch(1, func(b *gpusim.Block) error {
		seeds = gpusim.KSelectBlock(b, bounds, k)
		return nil
	}); err != nil {
		return nil, err
	}
	tau := 0.0
	d := len(query)
	for _, s := range seeds {
		dist, err := dtwDistance(query, hist[s.Index:s.Index+d], rho)
		if err != nil {
			return nil, err
		}
		if dist > tau {
			tau = dist
		}
	}
	dists := make([]float64, len(bounds))
	inf := posInf()
	for t, lb := range bounds {
		if lb > tau {
			dists[t] = inf
			continue
		}
		dist, err := dtwDistance(query, hist[t:t+d], rho)
		if err != nil {
			return nil, err
		}
		dists[t] = dist
	}
	var sel []gpusim.KSelectResult
	if err := dev.Launch(1, func(b *gpusim.Block) error {
		b.ParallelCompute(len(dists), d*(2*rho+1)*3)
		b.GlobalAccess(len(dists) * d)
		sel = gpusim.KSelectBlock(b, dists, k)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]scan.Result, len(sel))
	for i, s := range sel {
		out[i] = scan.Result{T: s.Index, Dist: s.Value}
	}
	return out, nil
}

// Fig8Row is one bar of Fig. 8: the time to produce the enhanced lower
// bounds for all sensors, with vs without the window-level index.
type Fig8Row struct {
	Dataset string
	Method  SearchMethod // MethodSMiLerIdx or MethodSMiLerDir
	WallSec float64      // per step, all sensors
	SimSec  float64
}

// RunFig8 measures LBen production only (no verification) for both
// methods over `steps` continuous steps.
func RunFig8(c *Corpus, steps int) ([]Fig8Row, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	p := searchParams()
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	const h = 1

	var idxWall, idxSim float64
	var ixs []*index.Index
	for _, s := range c.Series {
		ix, err := builtIndex(dev, s[:c.Spec.Warm], p)
		if err != nil {
			return nil, err
		}
		defer ix.Close()
		ixs = append(ixs, ix)
	}
	for step := 0; step < steps; step++ {
		for si, ix := range ixs {
			next := c.Series[si][c.Spec.Warm+step]
			t := StartTimer()
			dev.ResetTimer()
			if err := advance(ix, next); err != nil {
				return nil, err
			}
			if _, err := ix.ComputeLowerBounds(h); err != nil {
				return nil, err
			}
			idxWall += t.Seconds()
			idxSim += dev.SimSeconds()
		}
	}

	var dirWall, dirSim float64
	for si := range c.Series {
		for step := 0; step < steps; step++ {
			hist := c.Series[si][:c.Spec.Warm+step+1]
			t := StartTimer()
			dev.ResetTimer()
			if _, _, err := scan.DirLBen(dev, hist, p.ELV, p.Rho, h); err != nil {
				return nil, err
			}
			dirWall += t.Seconds()
			dirSim += dev.SimSeconds()
		}
	}
	fs := float64(steps)
	return []Fig8Row{
		{Dataset: c.Spec.Name, Method: MethodSMiLerIdx, WallSec: idxWall / fs, SimSec: idxSim / fs},
		{Dataset: c.Spec.Name, Method: MethodSMiLerDir, WallSec: dirWall / fs, SimSec: dirSim / fs},
	}, nil
}

// Table3Row is one cell block of Table 3: filtering power and
// verification cost of one lower bound on one dataset.
type Table3Row struct {
	Dataset       string
	Bound         index.LBMode
	VerifyWallSec float64 // total verification wall time over the run
	VerifySimSec  float64 // total simulated verification time
	Unfiltered    float64 // unfiltered candidates per query per sensor
}

// RunTable3 measures the three lower bounds' filtering behaviour with
// k=32 over `steps` continuous steps.
func RunTable3(c *Corpus, steps int) ([]Table3Row, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	const k, h = 32, 1
	var rows []Table3Row
	for _, mode := range []index.LBMode{index.LBModeEQ, index.LBModeEC, index.LBModeEn} {
		dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
		p := searchParams()
		p.LB = mode
		var unfiltered, queries, wallVerify, simVerify float64
		for si, s := range c.Series {
			ix, err := builtIndex(dev, s[:c.Spec.Warm], p)
			if err != nil {
				return nil, err
			}
			for step := 0; step < steps; step++ {
				if err := advance(ix, c.Series[si][c.Spec.Warm+step]); err != nil {
					ix.Close()
					return nil, err
				}
				t := StartTimer()
				if _, err := ix.Search(k, h); err != nil {
					ix.Close()
					return nil, err
				}
				wallVerify += t.Seconds() // search wall time dominated by verify at k=32
				st := ix.Stats()
				simVerify += st.VerifySimSeconds
				unfiltered += float64(st.Unfiltered)
				queries += float64(len(p.ELV))
			}
			ix.Close()
		}
		rows = append(rows, Table3Row{
			Dataset:       c.Spec.Name,
			Bound:         mode,
			VerifyWallSec: wallVerify,
			VerifySimSec:  simVerify,
			Unfiltered:    unfiltered / queries,
		})
	}
	return rows, nil
}

// SearchProfile is the per-category simulated-cycle breakdown of one
// search method over a run — it explains *where* the index wins
// (bandwidth on posting sums vs full-segment DTW traffic).
type SearchProfile struct {
	Dataset string
	Method  SearchMethod
	Profile gpusim.Profile
}

// RunSearchProfile runs `steps` continuous Suffix kNN steps for the
// index and the banded full scan, returning the accumulated cost-model
// breakdown of each.
func RunSearchProfile(c *Corpus, steps, k int) ([]SearchProfile, error) {
	if steps <= 0 || k <= 0 {
		return nil, fmt.Errorf("bench: invalid args steps=%d k=%d", steps, k)
	}
	p := searchParams()
	var out []SearchProfile
	for _, m := range []SearchMethod{MethodSMiLerIdx, MethodFastGPUScan} {
		dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
		switch m {
		case MethodSMiLerIdx:
			var ixs []*index.Index
			for _, s := range c.Series {
				ix, err := builtIndex(dev, s[:c.Spec.Warm], p)
				if err != nil {
					return nil, err
				}
				defer ix.Close()
				ixs = append(ixs, ix)
			}
			dev.ResetTimer() // profile the steady state, not construction
			for step := 0; step < steps; step++ {
				for si, ix := range ixs {
					if err := advance(ix, c.Series[si][c.Spec.Warm+step]); err != nil {
						return nil, err
					}
					if _, err := ix.Search(k, 1); err != nil {
						return nil, err
					}
				}
			}
		default:
			dev.ResetTimer()
			for si := range c.Series {
				for step := 0; step < steps; step++ {
					hist := c.Series[si][:c.Spec.Warm+step+1]
					for _, d := range p.ELV {
						q := hist[len(hist)-d:]
						if _, err := scan.FastGPUScan(dev, hist, q, p.Rho, k, 1); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		out = append(out, SearchProfile{Dataset: c.Spec.Name, Method: m, Profile: dev.Profile()})
	}
	return out, nil
}
