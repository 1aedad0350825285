// Package scan implements the kNN-search baselines the paper compares
// the SMiLer Index against (Section 6.2.1):
//
//   - FastGPUScan: banded DTW between the query and every candidate
//     segment on the GPU, then block k-selection.
//   - GPUScan: the same without the Sakoe-Chiba constraint (full
//     warping matrix), after [Sart et al. 2010].
//   - FastCPUScan: single-threaded scan with the classic LB_Keogh
//     cascade and early-abandoning DTW [Keogh 2002; UCR suite 2012].
//   - DirLBen ("SMiLer-Dir"): computes the enhanced lower bound LBen
//     directly per candidate without the window-level index — the
//     strawman Fig. 8 compares the two-level index against.
//
// It also provides BruteKNN, a slow exact reference used by tests to
// validate every other search path.
package scan

import (
	"fmt"
	"math"
	"sort"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
)

// Result is one nearest neighbour: candidate segment c[T:T+len(query)]
// at DTW distance Dist.
type Result struct {
	T    int
	Dist float64
}

// chunk is the number of candidates one GPU block processes.
const chunk = 256

// maxStart returns the largest valid candidate start so that the
// segment and its h-step-ahead label both exist, or -1 if none.
func maxStart(n, d, h int) int {
	m := n - d - h
	if m < 0 {
		return -1
	}
	return m
}

func validateArgs(c, query []float64, k, h int) error {
	if len(query) == 0 {
		return fmt.Errorf("scan: empty query")
	}
	if len(c) == 0 {
		return fmt.Errorf("scan: empty series")
	}
	if k <= 0 {
		return fmt.Errorf("scan: k=%d must be positive", k)
	}
	if h <= 0 {
		return fmt.Errorf("scan: horizon h=%d must be positive", h)
	}
	return nil
}

// sortResults orders ascending by distance, ties by position.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].T < rs[j].T
	})
}

// BruteKNN is the exact reference: full banded DTW at every valid
// position, then a sort. O(n·d·ρ) per query; tests only.
func BruteKNN(c, query []float64, rho, k, h int) ([]Result, error) {
	if err := validateArgs(c, query, k, h); err != nil {
		return nil, err
	}
	d := len(query)
	mt := maxStart(len(c), d, h)
	var all []Result
	for t := 0; t <= mt; t++ {
		dist, err := dtw.Distance(query, c[t:t+d], rho)
		if err != nil {
			return nil, err
		}
		all = append(all, Result{T: t, Dist: dist})
	}
	sortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// FastGPUScan computes banded DTW between the query and every valid
// candidate on the simulated GPU (one block per chunk of candidates,
// compressed warping matrix in shared memory), then selects the k
// nearest with the block k-selection kernel.
func FastGPUScan(dev *gpusim.Device, c, query []float64, rho, k, h int) ([]Result, error) {
	return gpuScan(dev, c, query, rho, k, h)
}

// GPUScan is FastGPUScan without the Sakoe-Chiba constraint: the
// warping band spans the whole matrix, costing d² cells per candidate
// instead of d·(2ρ+1) — the [60]-style baseline of Fig. 7.
func GPUScan(dev *gpusim.Device, c, query []float64, k, h int) ([]Result, error) {
	return gpuScan(dev, c, query, len(query), k, h)
}

func gpuScan(dev *gpusim.Device, c, query []float64, rho, k, h int) ([]Result, error) {
	if err := validateArgs(c, query, k, h); err != nil {
		return nil, err
	}
	d := len(query)
	mt := maxStart(len(c), d, h)
	if mt < 0 {
		return nil, nil
	}
	n := mt + 1
	dists := make([]float64, n)
	grid := (n + chunk - 1) / chunk
	err := dev.Launch(grid, func(blk *gpusim.Block) error {
		lo := blk.ID * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := blk.AllocShared(8 * d); err != nil {
			return err
		}
		shared := 8 * dtw.CompressedScratchLen(rho)
		if shared > dev.Config().SharedMemPerBlock-blk.SharedUsed() {
			// An unbanded scan on a long query cannot keep the matrix
			// in shared memory; it spills to global, which the cost
			// model charges below (this is exactly why GPUScan loses).
			blk.GlobalAccess((hi - lo) * d * (2*rho + 1))
		} else if err := blk.AllocShared(shared); err != nil {
			return err
		}
		blk.GlobalAccess((hi - lo) * d)
		blk.ParallelCompute(hi-lo, d*(2*rho+1)*6)
		scratch := dtw.GetCompressedScratch(rho)
		defer dtw.PutCompressedScratch(scratch)
		for t := lo; t < hi; t++ {
			dist, err := dtw.DistanceCompressed(query, c[t:t+d], rho, scratch)
			if err != nil {
				return err
			}
			dists[t] = dist
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sel []gpusim.KSelectResult
	if err := dev.Launch(1, func(blk *gpusim.Block) error {
		sel = gpusim.KSelectBlock(blk, dists, k)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]Result, len(sel))
	for i, s := range sel {
		out[i] = Result{T: s.Index, Dist: s.Value}
	}
	return out, nil
}

// CPUScanStats reports the pruning behaviour of FastCPUScan.
type CPUScanStats struct {
	Candidates     int // total candidate positions
	PrunedByLBKim  int // discarded by the O(1) endpoint bound
	PrunedByLBEQ   int // discarded by the query-envelope bound
	PrunedByLBEC   int // discarded by the data-envelope bound
	AbandonedEarly int // DTW started but abandoned against the running τ
	FullDTW        int // full DTW computations completed
}

// FastCPUScan is the single-threaded pruned scan with the UCR-style
// cascade: the O(1) LB_Kim endpoint bound, then LB_Keogh with the
// query envelope, then the data envelope, then early-abandoning banded
// DTW against the running k-th best distance.
func FastCPUScan(c, query []float64, rho, k, h int) ([]Result, CPUScanStats, error) {
	var st CPUScanStats
	if err := validateArgs(c, query, k, h); err != nil {
		return nil, st, err
	}
	d := len(query)
	mt := maxStart(len(c), d, h)
	if mt < 0 {
		return nil, st, nil
	}
	qEnv := dtw.NewEnvelope(query, rho)
	// Envelope of the whole series, so per-candidate LBEC is a slice
	// lookup instead of an O(d·ρ) recomputation (standard trick; the
	// wider context keeps it a valid lower bound).
	cEnv := dtw.NewEnvelope(c, rho)

	// Running top-k as a max-heap encoded in a sorted slice (k is
	// small: ≤128 in all experiments).
	var best []Result
	tau := math.Inf(1)
	insert := func(r Result) {
		pos := sort.Search(len(best), func(i int) bool {
			if best[i].Dist != r.Dist {
				return best[i].Dist > r.Dist
			}
			return best[i].T > r.T
		})
		best = append(best, Result{})
		copy(best[pos+1:], best[pos:])
		best[pos] = r
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			tau = best[k-1].Dist
		}
	}

	for t := 0; t <= mt; t++ {
		st.Candidates++
		seg := c[t : t+d]
		lbk, err := dtw.LBKim(query, seg)
		if err != nil {
			return nil, st, err
		}
		if lbk > tau {
			st.PrunedByLBKim++
			continue
		}
		lbq, err := dtw.LBKeogh(qEnv, seg)
		if err != nil {
			return nil, st, err
		}
		if lbq > tau {
			st.PrunedByLBEQ++
			continue
		}
		var lbc float64
		for j := 0; j < d; j++ {
			if q := query[j]; q > cEnv.Upper[t+j] {
				diff := q - cEnv.Upper[t+j]
				lbc += diff * diff
			} else if q < cEnv.Lower[t+j] {
				diff := q - cEnv.Lower[t+j]
				lbc += diff * diff
			}
		}
		if lbc > tau {
			st.PrunedByLBEC++
			continue
		}
		dist, done, err := dtw.DistanceEarlyAbandon(query, seg, rho, tau)
		if err != nil {
			return nil, st, err
		}
		if !done {
			st.AbandonedEarly++
			continue
		}
		st.FullDTW++
		if dist <= tau || len(best) < k {
			insert(Result{T: t, Dist: dist})
		}
	}
	return best, st, nil
}

// DirStats reports the work done by the direct LBen computation.
type DirStats struct {
	// Bounds is the number of (item query, candidate) lower bounds
	// produced.
	Bounds int
	// SimSeconds is the simulated GPU time spent.
	SimSeconds float64
}

// DirLBen computes LBen(IQ_i, C_{t,d_i}) directly for every item query
// length in elv and every valid candidate position, without the
// two-level index: each bound costs O(d) work instead of being
// assembled from ω-sized window sums shared across item queries and
// steps. Returns one bound slice per item length (index = position).
func DirLBen(dev *gpusim.Device, c []float64, elv []int, rho, h int) ([][]float64, DirStats, error) {
	var st DirStats
	if len(elv) == 0 {
		return nil, st, fmt.Errorf("scan: empty ELV")
	}
	dmax := elv[len(elv)-1]
	if len(c) < dmax {
		return nil, st, fmt.Errorf("scan: series shorter than longest item query")
	}
	cEnv := dtw.NewEnvelope(c, rho)
	out := make([][]float64, len(elv))
	before := dev.SimSeconds()
	for i, d := range elv {
		query := c[len(c)-d:]
		qEnv := dtw.NewEnvelope(query, rho)
		mt := maxStart(len(c), d, h)
		if mt < 0 {
			out[i] = nil
			continue
		}
		n := mt + 1
		bounds := make([]float64, n)
		grid := (n + chunk - 1) / chunk
		err := dev.Launch(grid, func(blk *gpusim.Block) error {
			lo := blk.ID * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			blk.GlobalAccess((hi - lo) * d * 2)
			blk.ParallelCompute(hi-lo, d*8)
			for t := lo; t < hi; t++ {
				seg := c[t : t+d]
				lbq, err := dtw.LBKeogh(qEnv, seg)
				if err != nil {
					return err
				}
				var lbc float64
				for j := 0; j < d; j++ {
					if q := query[j]; q > cEnv.Upper[t+j] {
						diff := q - cEnv.Upper[t+j]
						lbc += diff * diff
					} else if q < cEnv.Lower[t+j] {
						diff := q - cEnv.Lower[t+j]
						lbc += diff * diff
					}
				}
				bounds[t] = math.Max(lbq, lbc)
			}
			return nil
		})
		if err != nil {
			return nil, st, err
		}
		st.Bounds += n
		out[i] = bounds
	}
	st.SimSeconds = dev.SimSeconds() - before
	return out, st, nil
}
