// Package timeseries provides the basic time series substrate used by
// every layer of SMiLer: fixed-rate series of sensor observations,
// segment views, z-normalization and a bounded append-only history
// buffer.
//
// Terminology follows the paper (Section 3.1): a time series C of a
// sensor is a sequence of observations c_0, c_1, ...; a d-length
// segment C_{t,d} is the contiguous run of d points starting at index
// t; the segment ending at time t0 with length d is the model input
// x_{0,d} of a prediction request.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrBounds is returned when a requested segment lies outside the series.
var ErrBounds = errors.New("timeseries: segment out of bounds")

// ErrEmpty is returned for operations that need at least one point.
var ErrEmpty = errors.New("timeseries: empty series")

// Series is a fixed-sample-rate time series of one sensor.
type Series struct {
	id     string
	points []float64
}

// New returns a series with the given sensor id and initial points.
// The points slice is copied.
func New(id string, points []float64) *Series {
	p := make([]float64, len(points))
	copy(p, points)
	return &Series{id: id, points: p}
}

// ID returns the sensor identifier.
func (s *Series) ID() string { return s.id }

// Len returns the number of observations |C|.
func (s *Series) Len() int { return len(s.points) }

// At returns the observation c_t.
func (s *Series) At(t int) float64 { return s.points[t] }

// Append adds an observation to the end of the series.
func (s *Series) Append(v float64) { s.points = append(s.points, v) }

// Values returns the underlying observation slice (not a copy). The
// caller must not mutate it.
func (s *Series) Values() []float64 { return s.points }

// Segment returns the d-length segment C_{t,d} = {c_t, ..., c_{t+d-1}}
// as a view into the series.
func (s *Series) Segment(t, d int) ([]float64, error) {
	if t < 0 || d <= 0 || t+d > len(s.points) {
		return nil, fmt.Errorf("%w: t=%d d=%d len=%d", ErrBounds, t, d, len(s.points))
	}
	return s.points[t : t+d], nil
}

// Suffix returns the d-length segment ending at the last observation —
// the model input x_{0,d} of a prediction request issued "now".
func (s *Series) Suffix(d int) ([]float64, error) {
	return s.Segment(len(s.points)-d, d)
}

// Truncate shortens the series to its first n points. It is used to
// carve off leave-out test tails for evaluation.
func (s *Series) Truncate(n int) error {
	if n < 0 || n > len(s.points) {
		return ErrBounds
	}
	s.points = s.points[:n]
	return nil
}

// Split returns two new series: the first n points and the remaining
// tail. Both copies are independent of s.
func (s *Series) Split(n int) (head, tail *Series, err error) {
	if n < 0 || n > len(s.points) {
		return nil, nil, ErrBounds
	}
	return New(s.id, s.points[:n]), New(s.id, s.points[n:]), nil
}

// Stats holds first and second moment summaries of a slice of values.
type Stats struct {
	Mean, Std float64
}

// Summarize computes the mean and (population) standard deviation.
func Summarize(values []float64) (Stats, error) {
	if len(values) == 0 {
		return Stats{}, ErrEmpty
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return Stats{Mean: mean, Std: math.Sqrt(ss / float64(len(values)))}, nil
}

// Normalizer z-normalizes with frozen statistics so streaming points
// can be mapped into the same normalized space as the history.
type Normalizer struct {
	stats Stats
}

// NewNormalizer fits a normalizer on values.
func NewNormalizer(values []float64) (*Normalizer, error) {
	st, err := Summarize(values)
	if err != nil {
		return nil, err
	}
	return &Normalizer{stats: st}, nil
}

// NewNormalizerFromStats reinstates a normalizer with exactly the
// given frozen statistics — the checkpoint-restore path, where refitting
// on reconstructed points would reproduce the moments only to within
// rounding and break bit-identical recovery.
func NewNormalizerFromStats(st Stats) *Normalizer {
	return &Normalizer{stats: st}
}

// Stats returns the frozen statistics.
func (n *Normalizer) Stats() Stats { return n.stats }

// Apply maps a raw observation into normalized space.
func (n *Normalizer) Apply(v float64) float64 {
	if n.stats.Std == 0 {
		return 0
	}
	return (v - n.stats.Mean) / n.stats.Std
}

// Invert maps a normalized value back to raw space.
func (n *Normalizer) Invert(z float64) float64 {
	return z*n.stats.Std + n.stats.Mean
}

// InvertVariance maps a predictive variance in normalized space back to
// raw space (variance scales by Std²).
func (n *Normalizer) InvertVariance(v float64) float64 {
	return v * n.stats.Std * n.stats.Std
}
