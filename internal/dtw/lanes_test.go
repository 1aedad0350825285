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
// and the same processed-column count. It returns the distances and the
// column counts.
func checkLanes(t *testing.T, q []float64, c [Lanes][]float64, rho int, cutoff float64, rest [Lanes][]float64, variant int) ([Lanes]float64, [Lanes]int) {
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
	return want, wantCols
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
// at three or more distinct columns; a last lane outliving the other
// three — the hand-off to the scalar column loop —; groups that ran at
// least one pair of columns (laneColumn2); hand-offs right after a
// pair's first column, whose second is then discarded; and lanes
// stopping on a pair's second column.
type laneCoverage struct{ spread, handoffs, pairs, pairHandoffs, pairStops int }

// pairFirst reports whether DistanceLanes, still running two lanes at
// column j, fills it as the first column of a pair: columns ρ+1, ρ+3, …
// for as long as the pair's second column is a full band too.
func pairFirst(j, d, rho int) bool { return j > rho && j+1+rho <= d && (j-rho-1)%2 == 0 }

func (cv *laneCoverage) add(d, rho int, dist [Lanes]float64, cols [Lanes]int) {
	sorted := cols
	slices.Sort(sorted[:])
	// The lanes ran in lock step through the second-longest lane's last
	// column; a longer lane went on alone.
	through := sorted[Lanes-2]
	if sorted[Lanes-1] > through {
		cv.handoffs++
		if pairFirst(through, d, rho) {
			cv.pairHandoffs++
		}
	}
	if through > rho && rho+2 <= d {
		cv.pairs++
	}
	for l, j := range cols {
		if math.IsInf(dist[l], 1) && j <= through && pairFirst(j-1, d, rho) {
			cv.pairStops++
			break
		}
	}
	if len(slices.Compact(sorted[:])) >= 3 {
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
			dist, cols := checkLanes(t, q, c, rho, cutoff, rest, i)
			cv.add(len(q), rho, dist, cols)
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
	t.Logf("%d trials: %+v", trials, cv)
	if cv.spread < trials || cv.handoffs < trials || cv.pairs < trials || cv.pairHandoffs < trials || cv.pairStops < trials {
		t.Fatalf("over %d trials: %d cases with lanes stopping at ≥3 distinct columns, %d scalar hand-offs, %d groups running a pair of columns, %d hand-offs after a pair's first column, %d lanes stopping on a pair's second — the fixture does not exercise DistanceLanes",
			trials, cv.spread, cv.handoffs, cv.pairs, cv.pairHandoffs, cv.pairStops)
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

// checkSuffixLanes runs LBKeoghSuffixLanes on one case, into rows full of
// junk, and requires every lane to return exactly what LBKeoghSuffix
// returns for it alone: lb bit for bit, the same from, and the same
// suffix sums rest[from:].
func checkSuffixLanes(t *testing.T, env Envelope, c [Lanes][]float64, bar float64) {
	t.Helper()
	d := len(c[0])
	var rest [Lanes][]float64
	for l := range rest {
		rest[l] = make([]float64, d+1)
		for i := range rest[l] {
			rest[l][i] = math.NaN()
		}
	}
	lb, from := LBKeoghSuffixLanes(env, c, rest, bar)
	for l := range c {
		want := make([]float64, d+1)
		wantLB, wantFrom := LBKeoghSuffix(env, c[l], want, bar)
		same := math.Float64bits(lb[l]) == math.Float64bits(wantLB) && from[l] == wantFrom
		for i := wantFrom; same && i <= d; i++ {
			same = math.Float64bits(rest[l][i]) == math.Float64bits(want[i])
		}
		if !same {
			t.Fatalf("d=%d bar=%v, lane %d: lanes (%v [%#x], from %d), scalar (%v [%#x], from %d)\nrest  %v\nwant  %v\nc=%v",
				d, bar, l, lb[l], math.Float64bits(lb[l]), from[l], wantLB, math.Float64bits(wantLB), wantFrom,
				rest[l][wantFrom:], want[wantFrom:], c[l])
		}
	}
}

// suffixBars returns the bars that matter for one case: 0, each lane's
// own full bound (a tie must not stop it), fractions of one lane's bound
// on both sides of it, and none.
func suffixBars(env Envelope, c [Lanes][]float64, pick func(int) int) []float64 {
	bars := []float64{0}
	var own [Lanes]float64
	for l := range c {
		own[l], _ = LBKeogh(env, c[l])
	}
	bars = append(bars, own[:]...)
	for _, f := range []float64{0.2, 0.5, 0.8, 0.999, 1.001, 1.2, 1.5} {
		bars = append(bars, f*own[pick(Lanes)])
	}
	return append(bars, math.Inf(1))
}

// For every length up to 128: a random-walk query (flat in every fourth
// trial), candidates drifted off it by different amounts (one equal to
// it in another), and ρ from 0 to past the length.
func TestLBKeoghSuffixLanesMatchesScalar(t *testing.T) {
	skipWithoutLanes(t)
	rng := rand.New(rand.NewSource(34))
	for d := 1; d <= 128; d++ {
		for trial := 0; trial < 4; trial++ {
			rho := []int{0, rng.Intn(17), rng.Intn(17), d + rng.Intn(3)}[trial]
			q := randWalkSeries(rng, d)
			if trial == 2 {
				for i := range q {
					q[i] = q[0]
				}
			}
			var c [Lanes][]float64
			for l := range c {
				drift := float64(l) * rng.Float64()
				c[l] = randWalkSeries(rng, d)
				for i := range c[l] {
					c[l][i] = q[i] + drift*float64(i)/float64(d) + 0.3*float64(trial%2)*c[l][i]
				}
			}
			if trial == 3 {
				c[rng.Intn(Lanes)] = slices.Clone(q) // inside the envelope: a bound of 0
			}
			env := NewEnvelope(q, rho)
			for _, bar := range suffixBars(env, c, rng.Intn) {
				checkSuffixLanes(t, env, c, bar)
			}
		}
	}
}

// FuzzLBKeoghSuffixLanes holds the lane cascade to LBKeoghSuffix on
// arbitrary finite series, warping widths and bars (`make fuzz-smoke`
// runs it for ten seconds in CI). One byte per observation, the query
// then the four candidates; sel picks the bar: 0 none, 1-4 a lane's full
// bound, the rest a factor in [0, 1.5] of one.
func FuzzLBKeoghSuffixLanes(f *testing.F) {
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
		env := NewEnvelope(q, int(rhoByte%17))
		bar := math.Inf(1)
		if sel > 0 {
			bar, _ = LBKeogh(env, c[int(sel)%Lanes])
			if sel > Lanes {
				bar *= 1.5 * float64(sel-Lanes-1) / float64(255-Lanes-1)
			}
		}
		checkSuffixLanes(t, env, c, bar)
	})
}

// suffixBench is the cascade's serving shape: d=64 against a ρ=8 query
// envelope, Lanes candidates drifted off the query, no bar.
func suffixBench() (Envelope, [Lanes][]float64, [Lanes][]float64) {
	rng := rand.New(rand.NewSource(14))
	q := randWalkSeries(rng, 64)
	var c, rest [Lanes][]float64
	for l := range c {
		c[l] = randWalkSeries(rng, 64)
		for i := range c[l] {
			c[l][i] = q[i] + 0.3*c[l][i]
		}
		rest[l] = make([]float64, 65)
	}
	return NewEnvelope(q, 8), c, rest
}

// BenchmarkLBKeoghSuffix64 is the scalar cascade on one candidate per op
// at the serving shape; it fails on a single allocation.
func BenchmarkLBKeoghSuffix64(b *testing.B) {
	env, c, rest := suffixBench()
	run := func() {
		if _, from := LBKeoghSuffix(env, c[0], rest[0], math.Inf(1)); from != 0 {
			b.Fatalf("from=%d", from)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		b.Fatalf("cascade allocates %v times per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkLBKeoghSuffixLanes64 is BenchmarkLBKeoghSuffix64 for the lane
// cascade: one op bounds Lanes candidates, and it fails on a single
// allocation.
func BenchmarkLBKeoghSuffixLanes64(b *testing.B) {
	skipWithoutLanes(b)
	env, c, rest := suffixBench()
	run := func() {
		if _, from := LBKeoghSuffixLanes(env, c, rest, math.Inf(1)); from != [Lanes]int{} {
			b.Fatalf("from=%v", from)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		b.Fatalf("lane cascade allocates %v times per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
