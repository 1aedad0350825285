package dtw

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// garbageLaneScratch is garbageScratch for DistanceLanes: every word junk
// that a correct lane kernel must overwrite or never read.
func garbageLaneScratch(rho, variant int) []float64 {
	junk := []float64{0, math.NaN(), math.Inf(-1), 1e-300}
	s := make([]float64, LaneScratchLen(rho))
	for i := range s {
		s[i] = junk[(i+variant)%len(junk)]
	}
	return s
}

// checkLanes runs DistanceLanes on one case, with a nil scratch and with a
// garbage one, and requires every lane to return exactly what
// DistanceCompressedBounded returns for it alone: the same distance bits
// and the same processed-column count. It returns the column counts.
func checkLanes(t *testing.T, q []float64, c [Lanes][]float64, rho int, cutoff float64, rest [Lanes][]float64, variant int) [Lanes]int {
	t.Helper()
	var want [Lanes]float64
	var wantCols [Lanes]int
	for l := range c {
		var err error
		if want[l], wantCols[l], err = DistanceCompressedBounded(q, c[l], rho, cutoff, rest[l], nil); err != nil {
			t.Fatalf("scalar kernel: %v", err)
		}
	}
	for _, scratch := range [][]float64{nil, garbageLaneScratch(rho, variant)} {
		got, cols, err := DistanceLanes(q, c, rho, cutoff, rest, scratch)
		if err != nil {
			t.Fatalf("lane kernel: %v", err)
		}
		for l := range c {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) || cols[l] != wantCols[l] {
				t.Fatalf("d=%d ρ=%d cutoff=%v bound %t scratch %t, lane %d: lanes (%v [%#x], %d cols), scalar (%v [%#x], %d cols)\nq=%v\nc=%v",
					len(q), rho, cutoff, rest[l] != nil, scratch != nil, l, got[l], math.Float64bits(got[l]), cols[l],
					want[l], math.Float64bits(want[l]), wantCols[l], q, c[l])
			}
		}
	}
	return wantCols
}

// laneBounds returns the remaining-cost bounds the verifier would hand
// each lane (LB_Keogh suffix sums against the query's envelope), and the
// same rows halved — as valid and looser.
func laneBounds(q []float64, c [Lanes][]float64, rho int) (full, half [Lanes][]float64) {
	env := NewEnvelope(q, rho)
	for l := range c {
		full[l] = make([]float64, len(q)+1)
		LBKeoghSuffix(env, c[l], full[l], math.Inf(1))
		half[l] = make([]float64, len(q)+1)
		for i, v := range full[l] {
			half[l][i] = v / 2
		}
	}
	return full, half
}

// laneCoverage counts what a batch of cases exercised: lanes abandoning
// at three or more distinct columns, and a last lane outliving the other
// three — the hand-off to the scalar column loop.
type laneCoverage struct{ spread, handoffs int }

func (cv *laneCoverage) add(cols [Lanes]int) {
	slices.Sort(cols[:])
	if cols[Lanes-1] > cols[Lanes-2] {
		cv.handoffs++
	}
	if len(slices.Compact(cols[:])) >= 3 {
		cv.spread++
	}
}

// checkLaneCutoffs sweeps one case over the cutoffs that matter — none,
// each lane's true distance (a tie must be fully computed), and fractions
// of a lane's distance on both sides of it — with no bound, the
// verifier's bound, the bound halved, and the bound on half the lanes.
func checkLaneCutoffs(t *testing.T, rng *rand.Rand, q []float64, c [Lanes][]float64, rho int, cv *laneCoverage) {
	t.Helper()
	var truth [Lanes]float64
	for l := range c {
		truth[l], _, _ = DistanceCompressedBounded(q, c[l], rho, math.Inf(1), nil, nil)
	}
	cutoffs := []float64{math.Inf(1)}
	cutoffs = append(cutoffs, truth[:]...)
	for _, f := range []float64{0.2, 0.5, 0.8, 0.999, 1.001, 1.2, 1.4} {
		cutoffs = append(cutoffs, f*truth[rng.Intn(Lanes)])
	}
	full, half := laneBounds(q, c, rho)
	mixed := full
	mixed[1], mixed[3] = nil, nil
	for i, cutoff := range cutoffs {
		for _, rest := range [][Lanes][]float64{{}, full, half, mixed} {
			cv.add(checkLanes(t, q, c, rho, cutoff, rest, i))
		}
	}
}

// laneCase draws a query and Lanes candidates: random walks, with the
// shapes the scalar oracle test singles out — a candidate equal to the
// query (distance 0), a flat query — and candidates drifted off the query
// by different amounts, so that under one cutoff the lanes abandon at
// different columns.
func laneCase(rng *rand.Rand, trial int) (q []float64, c [Lanes][]float64, rho int) {
	d, rho := 1+rng.Intn(128), rng.Intn(17)
	switch trial % 10 {
	case 0:
		rho = 0
	case 1:
		rho = d + rng.Intn(3) // the band covers the whole matrix
	case 2:
		d = 1 + rng.Intn(3)
	}
	q = randWalkSeries(rng, d)
	if trial%10 == 4 {
		for i := range q {
			q[i] = q[0]
		}
	}
	for l := range c {
		c[l] = randWalkSeries(rng, d)
		if trial%2 == 1 {
			drift := float64(l) * rng.Float64()
			for i := range c[l] {
				c[l][i] = q[i] + drift*float64(i)/float64(d) + 0.3*c[l][i]
			}
		}
	}
	if trial%10 == 3 {
		c[rng.Intn(Lanes)] = slices.Clone(q)
	}
	return q, c, rho
}

// skipWithoutLanes skips a lane-kernel test on an architecture that has
// none (the scalar kernel is all that runs there).
func skipWithoutLanes(tb testing.TB) {
	tb.Helper()
	if !LaneKernel {
		tb.Skip("no lane kernel on this architecture")
	}
}

func TestLanesMatchScalarKernel(t *testing.T) {
	skipWithoutLanes(t)
	rng := rand.New(rand.NewSource(31))
	var cv laneCoverage
	trials := 600
	if testing.Short() {
		trials = 150
	}
	for trial := 0; trial < trials; trial++ {
		q, c, rho := laneCase(rng, trial)
		checkLaneCutoffs(t, rng, q, c, rho, &cv)
	}
	t.Logf("%d trials: %d cases with lanes stopping at ≥3 distinct columns, %d scalar hand-offs", trials, cv.spread, cv.handoffs)
	if cv.spread < trials || cv.handoffs < trials {
		t.Fatalf("over %d trials: %d cases with lanes stopping at ≥3 distinct columns, %d scalar hand-offs — the fixture does not exercise the driver", trials, cv.spread, cv.handoffs)
	}
}

func TestLanesErrors(t *testing.T) {
	q := []float64{1, 2, 3}
	good := [Lanes][]float64{q, q, q, q}
	if _, _, err := DistanceLanes(nil, [Lanes][]float64{}, 2, 1, [Lanes][]float64{}, nil); err == nil {
		t.Fatal("empty query accepted")
	}
	short := good
	short[2] = q[:2]
	if _, _, err := DistanceLanes(q, short, 2, 1, [Lanes][]float64{}, nil); err == nil {
		t.Fatal("a short candidate accepted")
	}
	if _, _, err := DistanceLanes(q, good, -1, 1, [Lanes][]float64{}, nil); err == nil {
		t.Fatal("negative warping width accepted")
	}
	if _, _, err := DistanceLanes(q, good, 1, 1, [Lanes][]float64{nil, {0, 0, 0}}, nil); err == nil {
		t.Fatal("a remaining-cost bound without rest[d] accepted")
	}
}

// FuzzDistanceLanes holds the lane kernel to the scalar one on arbitrary
// finite series, warping widths and cutoffs (`make fuzz-smoke` runs it
// for ten seconds in CI). One byte per observation, the query then the
// four candidates; sel picks the cutoff: 0 none, 1-4 a lane's true
// distance, the rest a factor in [0.2, 1.4] of one.
func FuzzDistanceLanes(f *testing.F) {
	skipWithoutLanes(f)
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150}, byte(3), byte(0))
	f.Add([]byte{200, 3, 180, 90, 17, 250, 128, 128, 64, 192}, byte(0), byte(2))
	f.Add([]byte{130, 140, 150, 160, 170, 131, 141, 151, 161, 171, 10, 250, 10, 250, 10, 0, 0, 0, 255, 255, 128, 129, 130, 131, 132}, byte(8), byte(100))
	f.Add([]byte{77, 99, 12, 200, 128}, byte(16), byte(255))
	f.Fuzz(func(t *testing.T, data []byte, rhoByte, sel byte) {
		d := len(data) / (Lanes + 1)
		if d == 0 || d > 128 {
			t.Skip()
		}
		value := func(b byte) float64 { return (float64(b) - 128) / 16 }
		q := make([]float64, d)
		var c [Lanes][]float64
		for i := range q {
			q[i] = value(data[i])
		}
		for l := range c {
			c[l] = make([]float64, d)
			for i := range c[l] {
				c[l][i] = value(data[(l+1)*d+i])
			}
		}
		rho := int(rhoByte % 17)
		cutoff := math.Inf(1)
		if sel > 0 {
			truth, _, _ := DistanceCompressedBounded(q, c[int(sel)%Lanes], rho, math.Inf(1), nil, nil)
			cutoff = truth
			if sel > Lanes {
				cutoff *= 0.2 + 1.2*float64(sel-Lanes-1)/float64(255-Lanes-1)
			}
		}
		full, _ := laneBounds(q, c, rho)
		checkLanes(t, q, c, rho, cutoff, [Lanes][]float64{}, int(sel))
		checkLanes(t, q, c, rho, cutoff, full, int(sel))
	})
}

// BenchmarkDistanceLanes64 is BenchmarkDistanceCompressed64 for the lane
// kernel: one op verifies Lanes candidates (d=64, ρ=8, pooled scratch,
// no cutoff), and it fails on a single allocation.
func BenchmarkDistanceLanes64(b *testing.B) {
	skipWithoutLanes(b)
	rng := rand.New(rand.NewSource(12))
	q := randSeries(rng, 64)
	var c [Lanes][]float64
	for l := range c {
		c[l] = randSeries(rng, 64)
	}
	scratch := GetLaneScratch(8)
	defer PutLaneScratch(scratch)
	run := func() {
		if _, cols, err := DistanceLanes(q, c, 8, math.Inf(1), [Lanes][]float64{}, scratch); err != nil || cols != [Lanes]int{64, 64, 64, 64} {
			b.Fatalf("cols=%v err=%v", cols, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		b.Fatalf("lane kernel allocates %v times per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
