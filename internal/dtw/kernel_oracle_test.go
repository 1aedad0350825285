package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleCompressedAbandon is the modulus-indexed rolling kernel that
// DistanceCompressedAbandon ran up to PR 19 (commit c32786c), kept
// verbatim as the reference the band-offset kernel must equal bit for
// bit (see sameFloat) — distance and processed-column count — on every
// input.
func oracleCompressedAbandon(q, c []float64, rho int, cutoff float64, scratch []float64) (float64, int, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if rho < 0 {
		return 0, 0, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	m := 2*rho + 2
	if len(scratch) < 2*m {
		scratch = make([]float64, 2*m)
	}
	g := scratch[:2*m]
	inf := math.Inf(1)
	for i := 0; i < m; i++ {
		g[i*2] = inf
	}
	g[0] = 0
	cell := func(i, j int) *float64 {
		ii := i % m
		if ii < 0 {
			ii += m
		}
		return &g[ii*2+(j&1)]
	}
	for j := 1; j <= d; j++ {
		*cell(j-rho-1, j) = inf
		*cell(j+rho, j-1) = inf
		if j-rho-1 < 0 {
			*cell(0, j) = inf
		}
		ilo, ihi := j-rho, j+rho
		if ilo < 1 {
			ilo = 1
		}
		if ihi > d {
			ihi = d
		}
		colMin := inf
		for i := ilo; i <= ihi; i++ {
			best := *cell(i-1, j)
			if v := *cell(i, j-1); v < best {
				best = v
			}
			if v := *cell(i-1, j-1); v < best {
				best = v
			}
			v := dist(q[i-1], c[j-1]) + best
			*cell(i, j) = v
			if v < colMin {
				colMin = v
			}
		}
		if colMin > cutoff {
			return inf, j, nil
		}
	}
	return *cell(d, d), d, nil
}

// garbageScratch returns a scratch of the right length whose every word
// is junk a correct kernel must overwrite or never read: 0 (a free
// path), NaN (poisons any min), −Inf, and a small finite value.
func garbageScratch(rho, variant int) []float64 {
	junk := []float64{0, math.NaN(), math.Inf(-1), 1e-300}
	s := NewCompressedScratch(rho)
	for i := range s {
		s[i] = junk[(i+variant)%len(junk)]
	}
	return s
}

// sameFloat is bit equality, except that any NaN equals any NaN. Which
// NaN comes out of an addition whose operands are both NaN is not a
// property of the Go source: amd64's ADDSD keeps the destination
// operand's payload, and which addend the compiler puts there is its
// choice per function and per release. A NaN distance is never selected
// or compared for more than being NaN, so the payload carries nothing.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernel runs the kernel and the oracle on one case — with a nil
// scratch and with each garbage scratch — and requires equal distances
// (sameFloat) and equal column counts, with no remaining-cost bound and
// with an all-zero one. Then it runs the kernel with the bound it gets in
// the verifier (checkBounded). It returns the oracle's answer.
func checkKernel(t *testing.T, q, c []float64, rho int, cutoff float64) (float64, int) {
	t.Helper()
	want, wantCols, err := oracleCompressedAbandon(q, c, rho, cutoff, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	zeros := make([]float64, len(q)+1)
	for variant := -1; variant < 4; variant++ {
		for _, rest := range [][]float64{nil, zeros} {
			var scratch []float64
			if variant >= 0 {
				scratch = garbageScratch(rho, variant)
			}
			got, cols, err := DistanceCompressedBounded(q, c, rho, cutoff, rest, scratch)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			if !sameFloat(got, want) || cols != wantCols {
				t.Fatalf("d=%d ρ=%d cutoff=%v scratch variant %d zero bound %t: kernel (%v [%#x], %d cols), oracle (%v [%#x], %d cols)\nq=%v\nc=%v",
					len(q), rho, cutoff, variant, rest != nil, got, math.Float64bits(got), cols, want, math.Float64bits(want), wantCols, q, c)
			}
		}
	}
	checkBounded(t, q, c, rho, cutoff, wantCols)
	return want, wantCols
}

// checkBounded runs the kernel with the remaining-cost bound the verifier
// hands it — the suffix sums of LB_Keogh against the query's envelope —
// and with half of it, a looser bound that is just as valid, and holds it
// to the bound's contract: the pair is abandoned only if its full
// distance exceeds the cutoff, never later than the plain kernel abandons
// it, and a pair that is not abandoned gets the full distance's bits. A
// query holding a NaN has no envelope to speak of and is skipped; ±Inf
// anywhere and NaN in the candidate are fair game.
func checkBounded(t *testing.T, q, c []float64, rho int, cutoff float64, plainCols int) {
	t.Helper()
	for _, v := range q {
		if math.IsNaN(v) {
			return
		}
	}
	full, _, err := oracleCompressedAbandon(q, c, rho, math.Inf(1), nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rest := make([]float64, len(q)+1)
	lb, from := LBKeoghSuffix(NewEnvelope(q, rho), c, rest, math.Inf(1))
	if lb != rest[0] || from != 0 || rest[len(q)] != 0 {
		t.Fatalf("LBKeoghSuffix returned (%v, %d) with rest[0]=%v rest[d]=%v", lb, from, rest[0], rest[len(q)])
	}
	for _, halve := range []bool{false, true} {
		if halve {
			for i := range rest {
				rest[i] /= 2
			}
		}
		checkBoundedRest(t, q, c, rho, cutoff, rest, full, plainCols)
	}
}

func checkBoundedRest(t *testing.T, q, c []float64, rho int, cutoff float64, rest []float64, full float64, plainCols int) {
	t.Helper()
	got, cols, err := DistanceCompressedBounded(q, c, rho, cutoff, rest, nil)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	abandoned := cols < len(q) || (math.IsInf(got, 1) && !math.IsInf(full, 1))
	switch {
	case cols > plainCols:
		t.Fatalf("d=%d ρ=%d cutoff=%v: the bounded kernel ran %d columns, the plain one %d", len(q), rho, cutoff, cols, plainCols)
	case abandoned && full <= cutoff:
		t.Fatalf("d=%d ρ=%d: abandoned at column %d under cutoff %v [%#x] a pair at distance %v [%#x]\nq=%v\nc=%v\nrest=%v",
			len(q), rho, cols, cutoff, math.Float64bits(cutoff), full, math.Float64bits(full), q, c, rest)
	case abandoned && !math.IsInf(got, 1):
		t.Fatalf("d=%d ρ=%d cutoff=%v: abandoned at column %d but reported %v", len(q), rho, cutoff, cols, got)
	case !abandoned && !sameFloat(got, full):
		t.Fatalf("d=%d ρ=%d cutoff=%v: bounded kernel %v [%#x], full distance %v [%#x]", len(q), rho, cutoff, got, math.Float64bits(got), full, math.Float64bits(full))
	}
}

// checkKernelCutoffs sweeps the cutoffs that matter around one pair's
// true distance: none, the distance itself (a tie must be fully
// computed), and fractions on both sides of it.
func checkKernelCutoffs(t *testing.T, q, c []float64, rho int) {
	t.Helper()
	truth, cols := checkKernel(t, q, c, rho, math.Inf(1))
	if cols != len(q) {
		t.Fatalf("cutoff=+Inf processed %d of %d columns", cols, len(q))
	}
	plain, err := DistanceCompressed(q, c, rho, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Distance(q, c, rho)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloat(plain, truth) || !sameFloat(full, truth) {
		t.Fatalf("d=%d ρ=%d: DistanceCompressed %v, Distance %v, DistanceCompressedAbandon(+Inf) %v", len(q), rho, plain, full, truth)
	}
	if got, cols := checkKernel(t, q, c, rho, truth); !math.IsNaN(truth) && (got != truth || cols != len(q)) {
		t.Fatalf("d=%d ρ=%d: cutoff at the true distance %v gave (%v, %d cols): a tie must be fully computed", len(q), rho, truth, got, cols)
	}
	for _, f := range []float64{0.2, 0.5, 0.8, 0.999, 1.001, 1.2, 1.4} {
		checkKernel(t, q, c, rho, f*truth)
	}
}

func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 1500; trial++ {
		d, rho := 1+rng.Intn(128), rng.Intn(17)
		switch trial % 10 {
		case 0:
			rho = 0
		case 1:
			rho = d + rng.Intn(3) // the band covers the whole matrix
		case 2:
			d = 1 + rng.Intn(3)
		}
		q, c := randWalkSeries(rng, d), randWalkSeries(rng, d)
		switch trial % 10 {
		case 3:
			c = append([]float64(nil), q...) // distance 0: every cutoff is a tie at zero
		case 4:
			for i := range q {
				q[i] = q[0] // a flat query: LB_Keogh equals the distance
			}
		}
		checkKernelCutoffs(t, q, c, rho)
	}
}

// Non-finite observations must take the same path through the kernel as
// through the oracle. NaN never wins a `<`, so which predecessor a cell
// keeps — and whether a column's minimum trips the cutoff — depends on
// where in the oracle's comparison chain the NaN sits; the kernel's
// bit-pattern minima must skip it in exactly the same places.
func TestKernelMatchesOracleNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 1500; trial++ {
		d, rho := 1+rng.Intn(48), rng.Intn(17)
		q, c := randWalkSeries(rng, d), randWalkSeries(rng, d)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			s := q
			if rng.Intn(2) == 0 {
				s = c
			}
			s[rng.Intn(d)] = special[rng.Intn(len(special))]
		}
		checkKernelCutoffs(t, q, c, rho)
		checkKernel(t, q, c, rho, float64(1+rng.Intn(200)))
		checkKernel(t, q, c, rho, math.NaN())
	}
}

// decodeKernelCase turns fuzz input into one kernel case. Each byte is
// one observation; the three lowest byte values stand for NaN and ±Inf.
// sel picks the cutoff: 0 none, 1 the true distance, the rest a factor
// in [0.2, 1.4] of it.
func decodeKernelCase(data []byte, rhoByte, sel byte) (q, c []float64, rho int, cutoff func(truth float64) float64, ok bool) {
	d := len(data) / 2
	if d == 0 || d > 128 {
		return nil, nil, 0, nil, false
	}
	value := func(b byte) float64 {
		switch b {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return (float64(b) - 128) / 16
	}
	q, c = make([]float64, d), make([]float64, d)
	for i := range q {
		q[i], c[i] = value(data[i]), value(data[d+i])
	}
	cutoff = func(truth float64) float64 {
		switch sel {
		case 0:
			return math.Inf(1)
		case 1:
			return truth
		}
		return truth * (0.2 + 1.2*float64(sel-2)/253)
	}
	return q, c, int(rhoByte % 17), cutoff, true
}

// FuzzDistanceCompressedAbandon holds the kernel to the oracle on
// arbitrary series, warping widths and cutoffs (seed corpus under
// testdata/fuzz; `make fuzz-smoke` runs it for ten seconds in CI).
func FuzzDistanceCompressedAbandon(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, byte(3), byte(0))
	f.Add([]byte{200, 3, 180, 90, 17, 250, 128, 128, 64, 192}, byte(0), byte(1))
	f.Add([]byte{0, 130, 140, 1, 150, 2, 160, 170}, byte(8), byte(100))
	f.Add([]byte{77, 99}, byte(16), byte(255))
	f.Fuzz(func(t *testing.T, data []byte, rhoByte, sel byte) {
		q, c, rho, cutoff, ok := decodeKernelCase(data, rhoByte, sel)
		if !ok {
			t.Skip()
		}
		truth, _ := checkKernel(t, q, c, rho, math.Inf(1))
		checkKernel(t, q, c, rho, cutoff(truth))
	})
}
