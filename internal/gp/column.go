package gp

import (
	"fmt"

	"smiler/internal/mat"
)

// Column holds the shared state of one Prediction-Step ensemble column
// (all cells with the same item-query length d): the kNN training pairs
// materialized once at the column's largest k, the query segment, and
// the pairwise squared-distance (Gram-base) matrix computed once and
// reused by every cell of the column. Hyper.Cov only rescales the
// squared distances, so sharing them is exact for every cell regardless
// of per-cell hyperparameters — cells with smaller k simply read the
// leading principal block.
type Column struct {
	x0 []float64
	x  [][]float64
	y  []float64
	sq *mat.Dense // ‖x_i−x_j‖², n×n
}

// NewColumn validates and wraps a column's training data, computing the
// Gram-base matrix once. Slices are retained, not copied.
func NewColumn(x0 []float64, x [][]float64, y []float64) (*Column, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d inputs vs %d targets", ErrDims, len(x), len(y))
	}
	dim := len(x[0])
	if len(x0) != dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimInput, len(x0), dim)
	}
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrDims, i, len(xi), dim)
		}
	}
	statColumns.Add(1)
	return &Column{x0: x0, x: x, y: y, sq: gramBase(x)}, nil
}

// Release returns the column's pooled Gram base to memsys. Idempotent;
// the column (and any trainSets derived from it) must not be used
// afterwards. Optional — an unreleased column is ordinary garbage.
func (c *Column) Release() {
	if c != nil {
		c.sq.Release()
	}
}

// Len returns the number of training pairs (the column's largest k).
func (c *Column) Len() int { return len(c.y) }

// X0 returns the column's query segment (a view, not a copy).
func (c *Column) X0() []float64 { return c.x0 }

// XY returns prefix views of the leading k training pairs.
func (c *Column) XY(k int) ([][]float64, []float64) {
	return c.x[:k], c.y[:k]
}

// set wraps the leading k pairs as a trainSet backed by the shared
// Gram base.
func (c *Column) set(k int) trainSet {
	return trainSet{x: c.x[:k], y: c.y[:k], sq: c.sq}
}

// checkK validates a prefix size against the column.
func (c *Column) checkK(k int) error {
	if k <= 0 || k > len(c.y) {
		return fmt.Errorf("%w: k=%d outside column of %d pairs", ErrDims, k, len(c.y))
	}
	return nil
}

// Fit conditions a GP on the leading k pairs, reusing the column's
// Gram base. The result is bit-identical to Fit on the same prefix.
func (c *Column) Fit(k int, hp Hyper) (*Model, error) {
	if err := c.checkK(k); err != nil {
		return nil, err
	}
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	return fitSet(c.set(k), hp)
}

// Optimize maximizes the LOO objective on the leading k pairs exactly
// like the package-level Optimize, but with every objective evaluation
// reading squared distances from the shared Gram base.
func (c *Column) Optimize(k int, init Hyper, maxIter int) (OptimizeResult, error) {
	if err := c.checkK(k); err != nil {
		return OptimizeResult{}, err
	}
	if err := init.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	if maxIter < 0 {
		return OptimizeResult{}, fmt.Errorf("gp: negative maxIter %d", maxIter)
	}
	return ascend(c.set(k), init, maxIter, looObjective)
}

// OptimizeML is Column.Optimize for the marginal-likelihood objective.
func (c *Column) OptimizeML(k int, init Hyper, maxIter int) (OptimizeResult, error) {
	if err := c.checkK(k); err != nil {
		return OptimizeResult{}, err
	}
	if err := init.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	if maxIter < 0 {
		return OptimizeResult{}, fmt.Errorf("gp: negative maxIter %d", maxIter)
	}
	return ascend(c.set(k), init, maxIter, mlObjective)
}
