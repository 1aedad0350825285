package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// nearDuplicates returns n points in dim dimensions where every second
// point sits 1e-9 from the one before it, so a covariance over them with
// little noise is numerically singular until the jitter ladder lifts it.
func nearDuplicates(rng *rand.Rand, n, dim int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			if i%2 == 1 {
				x[i][d] = x[i-1][d] + 1e-9*rng.NormFloat64()
			} else {
				x[i][d] = rng.NormFloat64()
			}
		}
		y[i] = math.Sin(x[i][0]) + 0.1*rng.NormFloat64()
	}
	return x, y
}

// TestCovarianceMatchesParent runs the value stage on every n from 1 to
// 67, which covers each remainder mod 4 of the lane groups, over a
// direct trainSet and a Column's, against the parent path: the
// covariance from refCovMatrixInto and the inverse from the unsplit
// refInverseTo. The covariance, L, α, (L⁻¹)ᵀ, C⁻¹ and the returned error
// must agree bit for bit. One hyperparameter set has a noise floor too
// low for near-duplicate points, so the fit walks the jitter ladder.
func TestCovarianceMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var jittered int
	for n := 1; n <= 67; n++ {
		x, y := nearDuplicates(rng, n, 5)
		col, err := NewColumn(x[0], x, y)
		if err != nil {
			t.Fatal(err)
		}
		direct := directSet(x, y)
		for _, hp := range []Hyper{
			{Signal: 1.3, Length: 0.9, Noise: 0.1},
			{Signal: 0.7, Length: 2.5, Noise: 1e-9},
			{Signal: 2, Length: 0.05, Noise: 0.3}, // arguments far below −708
		} {
			for _, ts := range []trainSet{direct, col.set(n)} {
				s, ref := newEvalScratch(n), newRefScratch(n)
				gerr, werr := s.fit(ts, hp), ref.fit(ts, hp)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("n=%d hp=%+v: fit error %v, parent %v", n, hp, gerr, werr)
				}
				if werr != nil {
					s.release()
					continue
				}
				requireBits(t, n, "covariance", s.cov.Data(), ref.cov.Data())
				requireBits(t, n, "L", s.lfac.Data(), ref.lfac.Data())
				requireBits(t, n, "α", s.alpha, ref.alpha)
				if !sameBits(s.cov.At(0, 0), hp.Signal*hp.Signal+hp.Noise*hp.Noise) {
					jittered++
				}
				if err := s.chol.InverseFactorTo(s.u); err != nil {
					t.Fatal(err)
				}
				if err := refInverseTo(&ref.chol, ref.kinv, ref.linv); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					for j := i; j < n; j++ {
						if !sameBits(s.u.At(i, j), ref.linv.At(j, i)) {
							t.Fatalf("n=%d hp=%+v: (L⁻¹)ᵀ[%d][%d] = %v, parent %v", n, hp, i, j, s.u.At(i, j), ref.linv.At(j, i))
						}
					}
				}
				if _, err := looGrad(ts, hp, s); err != nil {
					t.Fatal(err)
				}
				requireBits(t, n, "C⁻¹", s.kinv.Data(), ref.kinv.Data())
				s.release()
			}
		}
		direct.sq.Release()
		col.Release()
	}
	if jittered == 0 {
		t.Fatal("no fit walked the jitter ladder")
	}
}

func requireBits(t *testing.T, n int, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("n=%d: %s[%d] = %v, parent %v", n, label, i, got[i], want[i])
		}
	}
}

// FuzzCovRowLanes holds covRow to one math.Exp per entry, bit for bit,
// on arbitrary squared distances: −0, arguments just past the lanes'
// −708 floor, NaN, negative r² (positive arguments) and infinities all
// land in the same row as ordinary entries. raw holds the row, eight
// bytes per entry.
func FuzzCovRowLanes(f *testing.F) {
	row := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(row(0, 1, 2, 3, 4, 5, 6, 7, 8), 1.7, 0.8)
	f.Add(row(math.Copysign(0, -1), 1416, 1417, 1418, 1419, 1420, 0.5, 0.25), 1.0, 1.0)
	f.Add(row(1415.9, 1416, 1416.1, 1420), 2.0, 1.0)
	f.Add(row(1, math.NaN(), 3, 4, 5, 6, 7, 8), 1.0, 1.0)
	f.Add(row(1, 2, 3, -4, 5, 6, 7, 8, -1e-300, 5e-324), 0.3, 2.0)
	f.Add(row(math.Inf(1), 1, 2, 3, math.Inf(-1)), 1.0, 1e-3)
	f.Add(row(1e300, 1e-300, 1, 1), 1e200, 1e-200)
	long := make([]float64, 256)
	for i := range long {
		long[i] = math.Mod(1.6180339887*float64(i), 40)
	}
	f.Add(row(long...), 1.1, 0.6)
	f.Fuzz(func(t *testing.T, raw []byte, sig2, len2 float64) {
		r2 := make([]float64, len(raw)/8)
		for i := range r2 {
			r2[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got, want := make([]float64, len(r2)), make([]float64, len(r2))
		covRow(got, r2, sig2, len2)
		for i, v := range r2 {
			want[i] = sig2 * math.Exp(-0.5*v/len2)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("r2[%d] = %v (sig2 %v, len2 %v): %v (%#x), math.Exp gives %v (%#x)",
					i, r2[i], sig2, len2, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// TestExpFallbackMatchesLanes turns the lanes off and requires
// Column.Optimize to end at the same bits, with the same counts, at
// k = 8, 16 and 32 — the serving path with and without the AVX2 kernel.
func TestExpFallbackMatchesLanes(t *testing.T) {
	if !useLanes {
		t.Skip("covariance lanes off: no AVX2 and FMA, or math.Exp held off FMA")
	}
	rng := rand.New(rand.NewSource(10))
	x, y := makeData(rng, 32, 64, 0.1)
	col, err := NewColumn(x[0], x, y)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Release()
	for _, k := range []int{8, 16, 32} {
		init := HeuristicHyper(x[:k], y[:k])
		for _, iters := range []int{5, 20} {
			lanes, err := col.Optimize(k, init, iters)
			if err != nil {
				t.Fatal(err)
			}
			useLanes = false
			fallback, err := col.Optimize(k, init, iters)
			useLanes = true
			if err != nil {
				t.Fatal(err)
			}
			if !sameOptimum(lanes, fallback) || lanes.Evals != fallback.Evals || lanes.Gradients != fallback.Gradients {
				t.Fatalf("k=%d iters=%d: lanes %+v, math.Exp %+v", k, iters, lanes, fallback)
			}
		}
	}
}

// BenchmarkCovMatrix32 builds one k = 32 covariance (the upper triangle,
// 528 exponentials, mirrored) from a Column's Gram base, with the lanes
// and through math.Exp alone.
func BenchmarkCovMatrix32(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeData(rng, 32, 64, 0.1)
	col, err := NewColumn(x[0], x, y)
	if err != nil {
		b.Fatal(err)
	}
	defer col.Release()
	ts, hp := col.set(32), HeuristicHyper(x, y)
	c := newEvalScratch(32)
	defer c.release()
	for _, lanes := range []bool{true, false} {
		name := "math.Exp"
		if lanes {
			if !useLanes {
				continue
			}
			name = "lanes"
		}
		b.Run(name, func(b *testing.B) {
			saved := useLanes
			useLanes = lanes
			defer func() { useLanes = saved }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				covMatrixInto(c.cov, ts, hp, 0)
			}
		})
	}
}
