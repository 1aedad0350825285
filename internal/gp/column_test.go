package gp

import (
	"math"
	"math/rand"
	"testing"

	"smiler/internal/mat"
)

// columnFixture builds a deterministic training set of n pairs in dim
// dimensions with a smooth target plus noise.
func columnFixture(t *testing.T, n, dim int, seed int64) ([]float64, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x0 := make([]float64, dim)
	for j := range x0 {
		x0[j] = rng.NormFloat64()
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		var s float64
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
			s += x[i][j]
		}
		y[i] = math.Sin(s) + 0.05*rng.NormFloat64()
	}
	return x0, x, y
}

// TestColumnGramBaseBitIdentical checks the Gram-base exactness claim:
// the covariance matrix built from the column's shared Gram base is
// bit-identical to the one built from a Gram base of the prefix's own
// and to the parent builder's, which recomputed squared distances
// directly, for every prefix k and arbitrary hyperparameters.
func TestColumnGramBaseBitIdentical(t *testing.T) {
	x0, x, y := columnFixture(t, 24, 8, 1)
	col, err := NewColumn(x0, x, y)
	if err != nil {
		t.Fatalf("NewColumn: %v", err)
	}
	for _, hp := range []Hyper{
		{Signal: 1.3, Length: 0.9, Noise: 0.1},
		{Signal: 0.2, Length: 3.7, Noise: 0.01},
	} {
		for _, k := range []int{1, 7, 16, 24} {
			ts := directSet(x[:k], y[:k])
			direct, shared, ref := mat.NewDense(k, k), mat.NewDense(k, k), mat.NewDense(k, k)
			covMatrixInto(direct, ts, hp, 0)
			covMatrixInto(shared, col.set(k), hp, 0)
			refCovMatrixInto(ref, k, refR2(ts), hp, 0)
			ts.sq.Release()
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if !sameBits(direct.At(i, j), shared.At(i, j)) || !sameBits(direct.At(i, j), ref.At(i, j)) {
						t.Fatalf("k=%d hp=%+v: cov[%d][%d] direct %v, shared %v, parent %v",
							k, hp, i, j, direct.At(i, j), shared.At(i, j), ref.At(i, j))
					}
				}
			}
		}
	}
}

// TestColumnFitMatchesPlainFit checks Column.Fit posterior == plain Fit
// posterior bitwise on every prefix.
func TestColumnFitMatchesPlainFit(t *testing.T) {
	x0, x, y := columnFixture(t, 20, 6, 2)
	col, err := NewColumn(x0, x, y)
	if err != nil {
		t.Fatalf("NewColumn: %v", err)
	}
	hp := Hyper{Signal: 1.1, Length: 1.4, Noise: 0.08}
	for _, k := range []int{3, 10, 20} {
		plain, err := Fit(x[:k], y[:k], hp)
		if err != nil {
			t.Fatalf("Fit(k=%d): %v", k, err)
		}
		viaCol, err := col.Fit(k, hp)
		if err != nil {
			t.Fatalf("Column.Fit(k=%d): %v", k, err)
		}
		m1, v1, err := plain.Predict(x0)
		if err != nil {
			t.Fatalf("plain.Predict: %v", err)
		}
		m2, v2, err := viaCol.Predict(x0)
		if err != nil {
			t.Fatalf("column.Predict: %v", err)
		}
		if m1 != m2 || v1 != v2 {
			t.Fatalf("k=%d: plain (%v, %v) != column (%v, %v)", k, m1, v1, m2, v2)
		}
	}
}

// TestColumnOptimizeMatchesPlain checks that hyperparameter training
// through the column's shared Gram base follows the exact same
// optimization trajectory as the package-level entry points.
func TestColumnOptimizeMatchesPlain(t *testing.T) {
	x0, x, y := columnFixture(t, 18, 5, 3)
	col, err := NewColumn(x0, x, y)
	if err != nil {
		t.Fatalf("NewColumn: %v", err)
	}
	for _, k := range []int{6, 18} {
		initK := HeuristicHyper(x[:k], y[:k])
		plain, err1 := Optimize(x[:k], y[:k], initK, 12)
		viaCol, err2 := col.Optimize(k, initK, 12)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("k=%d: error mismatch %v vs %v", k, err1, err2)
		}
		if err1 == nil && plain.Hyper != viaCol.Hyper {
			t.Fatalf("k=%d LOO: plain %+v != column %+v", k, plain.Hyper, viaCol.Hyper)
		}
		plainML, err1 := OptimizeML(x[:k], y[:k], initK, 12)
		viaColML, err2 := col.OptimizeML(k, initK, 12)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("k=%d ML: error mismatch %v vs %v", k, err1, err2)
		}
		if err1 == nil && plainML.Hyper != viaColML.Hyper {
			t.Fatalf("k=%d ML: plain %+v != column %+v", k, plainML.Hyper, viaColML.Hyper)
		}
	}
}
