package timeseries

import (
	"errors"
	"math"
	"testing"
)

func TestNewCopiesInput(t *testing.T) {
	src := []float64{1, 2, 3}
	s := New("a", src)
	src[0] = 99
	if s.At(0) != 1 {
		t.Fatal("New must copy its input")
	}
	if s.ID() != "a" || s.Len() != 3 {
		t.Fatal("ID/Len wrong")
	}
}

func TestAppendAndValues(t *testing.T) {
	s := New("a", nil)
	s.Append(1)
	s.Append(2)
	if s.Len() != 2 || s.Values()[1] != 2 {
		t.Fatal("Append/Values wrong")
	}
}

func TestSegmentAndSuffix(t *testing.T) {
	s := New("a", []float64{0, 1, 2, 3, 4})
	seg, err := s.Segment(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != 3 || seg[0] != 1 || seg[2] != 3 {
		t.Fatalf("Segment = %v", seg)
	}
	suf, err := s.Suffix(2)
	if err != nil {
		t.Fatal(err)
	}
	if suf[0] != 3 || suf[1] != 4 {
		t.Fatalf("Suffix = %v", suf)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {3, 3}} {
		if _, err := s.Segment(bad[0], bad[1]); !errors.Is(err, ErrBounds) {
			t.Fatalf("Segment(%d,%d) err = %v, want ErrBounds", bad[0], bad[1], err)
		}
	}
}

func TestTruncateAndSplit(t *testing.T) {
	s := New("a", []float64{0, 1, 2, 3})
	head, tail, err := s.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if head.Len() != 3 || tail.Len() != 1 || tail.At(0) != 3 {
		t.Fatal("Split wrong")
	}
	head.Append(9) // independence
	if s.Len() != 4 {
		t.Fatal("Split must copy")
	}
	if err := s.Truncate(2); err != nil || s.Len() != 2 {
		t.Fatal("Truncate wrong")
	}
	if err := s.Truncate(5); !errors.Is(err, ErrBounds) {
		t.Fatal("Truncate bounds")
	}
	if _, _, err := s.Split(-1); !errors.Is(err, ErrBounds) {
		t.Fatal("Split bounds")
	}
}

func TestSummarize(t *testing.T) {
	st, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean != 5 || st.Std != 2 {
		t.Fatalf("Summarize = %+v", st)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("expected ErrEmpty")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	n, err := NewNormalizer([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	v := 17.3
	if got := n.Invert(n.Apply(v)); math.Abs(got-v) > 1e-12 {
		t.Fatalf("round trip %v -> %v", v, got)
	}
	if n.Stats().Mean != 20 {
		t.Fatal("stats wrong")
	}
	// Variance scales by Std².
	if math.Abs(n.InvertVariance(1)-n.Stats().Std*n.Stats().Std) > 1e-12 {
		t.Fatal("InvertVariance wrong")
	}
	if _, err := NewNormalizer(nil); err == nil {
		t.Fatal("expected error for empty fit")
	}
	cn, _ := NewNormalizer([]float64{4, 4})
	if cn.Apply(7) != 0 {
		t.Fatal("constant normalizer should map to 0")
	}
}
