package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundSeries returns an n-point seeded series of the given kind: a
// random walk ("walk"); the walk with flat runs ("flat"); the walk
// scaled beyond float32 range ("huge") or into float32's subnormals
// ("tiny"); the walk scaled to float64 subnormals ("subnormal"); the
// walk with a few ±Inf ("inf"); or runs of each ("mixed").
func boundSeries(rng *rand.Rand, n int, kind string) []float64 {
	out := randwalk(rng, n)
	switch kind {
	case "flat":
		for i := 0; i < n; {
			run := 1 + rng.Intn(40)
			if rng.Intn(2) == 0 {
				for j := i + 1; j < min(i+run, n); j++ {
					out[j] = out[i]
				}
			}
			i += run
		}
	case "huge", "tiny", "subnormal":
		scale := map[string]float64{"huge": 1e39, "tiny": 1e-42, "subnormal": 1e-310}[kind]
		for i := range out {
			out[i] *= scale
		}
	case "inf":
		for j := 0; j < 3; j++ {
			out[rng.Intn(n)] = math.Inf(1 - 2*rng.Intn(2))
		}
	case "mixed":
		kinds := []string{"walk", "flat", "huge", "tiny", "subnormal"}
		for i := 0; i < n; i += 50 {
			seg := boundSeries(rng, 50, kinds[rng.Intn(len(kinds))])
			copy(out[i:], seg)
		}
	}
	return out
}

// notAbove reports whether the stored value a bounds the exact value e
// from below: a ≤ e, or both NaN.
func notAbove(a, e float64) bool { return a <= e || (math.IsNaN(a) && math.IsNaN(e)) }

// checkStoredBounds asserts that ix's float32 window level bounds ref's
// float64 one from the safe side at the same sync point: every posting
// entry and lower-envelope point is at most the exact value, every
// upper-envelope point at least, and every group-level bound at
// horizon h at most the exact bound, at the same candidate positions.
func checkStoredBounds(t *testing.T, what string, ix *Index, ref *index64, h int) {
	t.Helper()
	lbs, err := ix.ComputeLowerBounds(h)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBounds(lbs)
	exact, err := ref.ComputeLowerBounds(h)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBounds(exact)
	if ix.nDW != ref.nDW || ix.cursor != ref.cursor {
		t.Fatalf("%s: the two window levels took different Sync paths", what)
	}
	omega := ix.p.Omega
	for r := 0; r < ix.nDW; r++ {
		for i := 0; i < omega; i++ {
			u, l := float64(ix.dwEnvU[r*omega+i]), float64(ix.dwEnvL[r*omega+i])
			if !notAbove(ref.dwEnvU[r][i], u) || !notAbove(l, ref.dwEnvL[r][i]) {
				t.Fatalf("%s: DW %d point %d: stored envelope [%v, %v] does not contain [%v, %v]",
					what, r, i, l, u, ref.dwEnvL[r][i], ref.dwEnvU[r][i])
			}
		}
	}
	for b := 0; b < ix.nSW; b++ {
		for r := 0; r < ix.nDW; r++ {
			eq, ec := float64(ix.postEQ[ix.slot(b)][r]), float64(ix.postEC[ix.slot(b)][r])
			wantEQ, wantEC := ref.postEQ[ref.slot(b)][r], ref.postEC[ref.slot(b)][r]
			if !notAbove(eq, wantEQ) || !notAbove(ec, wantEC) {
				t.Fatalf("%s: SW %d DW %d: stored (LBEQ %v, LBEC %v) above exact (%v, %v)",
					what, b, r, eq, ec, wantEQ, wantEC)
			}
		}
	}
	for i, d := range ix.p.ELV {
		if len(lbs[i]) != len(exact[i]) {
			t.Fatalf("%s: d=%d: %d bounds, want %d", what, d, len(lbs[i]), len(exact[i]))
		}
		for pos, lb := range lbs[i] {
			if !notAbove(lb, exact[i][pos]) || math.IsInf(lb, 1) != math.IsInf(exact[i][pos], 1) {
				t.Fatalf("%s: d=%d t=%d: group-level bound %v, exact %v", what, d, pos, lb, exact[i][pos])
			}
		}
	}
}

// sum32 and down32 return the largest float32 at or below x, up32 the
// smallest at or above it, on both sides of every float32 boundary:
// zero, the subnormals, the largest finite value and beyond, ±Inf and
// NaN.
func TestRounding32IsDirectedAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	xs := []float64{0, math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 3,
		0.75 * math.SmallestNonzeroFloat32, math.MaxFloat32, math.MaxFloat32 * (1 + 1e-9), 1e300, math.MaxFloat64,
		math.Inf(1), 1, 1.0 / 3, 0.1}
	for i := 0; i < 20000; i++ {
		xs = append(xs, rng.Float64()*math.Pow(2, float64(rng.Intn(320)-170)))
	}
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			d, u := down32(v), up32(v)
			if float64(d) > v || float64(math.Nextafter32(d, float32(math.Inf(1)))) <= v && !math.IsInf(v, 1) {
				t.Fatalf("down32(%v) = %v, not the largest float32 at or below it", v, d)
			}
			if float64(u) < v || float64(math.Nextafter32(u, float32(math.Inf(-1)))) >= v && !math.IsInf(v, -1) {
				t.Fatalf("up32(%v) = %v, not the smallest float32 at or above it", v, u)
			}
		}
		if s := sum32(x); math.Float32bits(s) != math.Float32bits(down32(x)) {
			t.Fatalf("sum32(%v) = %v, down32 = %v", x, s, down32(x))
		}
	}
	if nan := math.NaN(); !math.IsNaN(float64(sum32(nan))) || !math.IsNaN(float64(down32(nan))) || !math.IsNaN(float64(up32(nan))) {
		t.Fatal("NaN must stay NaN")
	}
}

// Every value the float32 window level stores is a bound on the value
// the float64 level computes, rounded toward the safe side, over seeded
// series with flat runs, magnitudes beyond float32 range, float32 and
// float64 subnormals and ±Inf, through builds, catch-ups and rebuilds.
func TestStoredWindowLevelBoundsExact(t *testing.T) {
	dev := testDevice(t)
	kinds := []string{"walk", "flat", "huge", "tiny", "subnormal", "inf", "mixed"}
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 28; trial++ {
		kind := kinds[trial%len(kinds)]
		p := smallParams()
		if trial%2 == 1 {
			p = DefaultParams()
		}
		nSW := p.ELV[len(p.ELV)-1] - p.Omega + 1
		start := p.ELV[len(p.ELV)-1] + p.Omega + rng.Intn(300)
		all := boundSeries(rng, start+3*nSW, kind)
		ix, err := New(dev, all[:start], p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newIndex64(dev, all[:start], p)
		if err != nil {
			t.Fatal(err)
		}
		n := start
		for _, m := range []int{0, 1, 1, p.Rho + 2, p.Omega + 1, nSW} {
			for _, v := range all[n : n+m] {
				if err := ix.Advance(v); err != nil {
					t.Fatal(err)
				}
				if err := ref.Advance(v); err != nil {
					t.Fatal(err)
				}
			}
			n += m
			checkStoredBounds(t, fmt.Sprintf("trial %d (%s, n=%d)", trial, kind, n), ix, ref, 1+m%3)
		}
		ix.Close()
		ref.Close()
	}
}

// The float32 window level answers every search exactly as the float64
// level does: the same neighbour positions at bit-equal distances, with
// every stored bound on the safe side, through one-step catch-ups,
// multi-step gaps, gaps that leave a disjoint window's right context
// pending, and full rebuilds, at mixed horizons.
func TestWindowLevel32MatchesFloat64(t *testing.T) {
	dev := testDevice(t)
	const k = 8
	for _, kind := range []string{"walk", "flat", "huge", "tiny", "mixed"} {
		for _, p := range []Params{smallParams(), DefaultParams()} {
			rng := rand.New(rand.NewSource(45))
			nSW := p.ELV[len(p.ELV)-1] - p.Omega + 1
			gaps := []int{1, 1, 2, p.Rho, p.Rho + 1, p.Omega - 1, p.Omega, p.Omega + 1,
				nSW - p.Rho - 1, nSW - p.Rho, 1, nSW, 3, 2 * nSW, 1}
			total := 0
			for _, m := range gaps {
				total += m
			}
			start := 4*p.ELV[len(p.ELV)-1] + 5
			all := boundSeries(rng, start+total, kind)
			ix, err := New(dev, all[:start], p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newIndex64(dev, all[:start], p)
			if err != nil {
				t.Fatal(err)
			}
			horizons := [][]int{{1}, {1, 3, 6}, {2}, {3}, {1, 2}}
			n := start
			for step, m := range append([]int{0}, gaps...) {
				for _, v := range all[n : n+m] {
					if err := ix.Advance(v); err != nil {
						t.Fatal(err)
					}
					if err := ref.Advance(v); err != nil {
						t.Fatal(err)
					}
				}
				n += m
				hs := horizons[step%len(horizons)]
				what := fmt.Sprintf("%s ω=%d step %d (n=%d, gap %d, hs %v)", kind, p.Omega, step, n, m, hs)
				got, err := ix.SearchMulti(k, hs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.SearchMulti(k, hs)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, what, got, want)
				checkStoredBounds(t, what, ix, ref, hs[0])
			}
			ix.Close()
			ref.Close()
		}
	}
}
