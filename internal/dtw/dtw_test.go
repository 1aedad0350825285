package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.5
		out[i] = v
	}
	return out
}

func TestDistanceIdentical(t *testing.T) {
	q := []float64{1, 2, 3, 4, 5}
	got, err := Distance(q, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("DTW(q,q) = %v, want 0", got)
	}
}

func TestDistanceZeroBandIsEuclidean(t *testing.T) {
	q := []float64{1, 2, 3}
	c := []float64{2, 2, 5}
	got, err := Distance(q, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 0 + 4 // squared pointwise
	if got != want {
		t.Fatalf("DTW ρ=0 = %v, want %v", got, want)
	}
}

func TestDistanceKnownWarp(t *testing.T) {
	// A one-step shift is absorbed by warping with ρ≥1.
	q := []float64{0, 1, 2, 3, 4}
	c := []float64{0, 0, 1, 2, 3}
	d0, _ := Distance(q, c, 0)
	d1, _ := Distance(q, c, 1)
	if d1 >= d0 {
		t.Fatalf("warping should help: ρ=1 %v vs ρ=0 %v", d1, d0)
	}
	if d1 != 1 { // only the final 4↔3 mismatch remains
		t.Fatalf("DTW ρ=1 = %v, want 1", d1)
	}
}

func TestDistanceErrors(t *testing.T) {
	if _, err := Distance([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Distance(nil, nil, 1); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Distance([]float64{1}, []float64{1}, -1); err == nil {
		t.Fatal("expected negative rho error")
	}
	if _, err := DistanceCompressed([]float64{1}, []float64{1, 2}, 1, nil); err == nil {
		t.Fatal("expected length error (compressed)")
	}
	if _, err := DistanceCompressed([]float64{1}, []float64{1}, -1, nil); err == nil {
		t.Fatal("expected negative rho error (compressed)")
	}
	if _, _, err := DistanceEarlyAbandon([]float64{1}, nil, 1, 1); err == nil {
		t.Fatal("expected length error (early abandon)")
	}
}

func TestDistanceCompressedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		rho := rng.Intn(10)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		want, err := Distance(q, c, rho)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DistanceCompressed(q, c, rho, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d ρ=%d): compressed %v != reference %v", trial, n, rho, got, want)
		}
	}
}

func TestDistanceCompressedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scratch := NewCompressedScratch(4)
	q := randSeries(rng, 20)
	c := randSeries(rng, 20)
	want, _ := Distance(q, c, 4)
	for i := 0; i < 3; i++ { // reuse must not leak state across calls
		got, err := DistanceCompressed(q, c, 4, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("call %d: %v != %v", i, got, want)
		}
	}
	if CompressedScratchLen(4) != len(scratch) {
		t.Fatal("scratch length mismatch")
	}
}

func TestEnvelopeBasics(t *testing.T) {
	v := []float64{1, 3, 2, 5, 4}
	e := NewEnvelope(v, 1)
	wantU := []float64{3, 3, 5, 5, 5}
	wantL := []float64{1, 1, 2, 2, 4}
	for i := range v {
		if e.Upper[i] != wantU[i] || e.Lower[i] != wantL[i] {
			t.Fatalf("envelope[%d] = (%v,%v), want (%v,%v)", i, e.Upper[i], e.Lower[i], wantU[i], wantL[i])
		}
	}
	if e.Len() != 5 {
		t.Fatal("Len wrong")
	}
}

func TestEnvelopeContainsSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := randSeries(rng, 50)
	e := NewEnvelope(v, 5)
	for i := range v {
		if v[i] > e.Upper[i] || v[i] < e.Lower[i] {
			t.Fatalf("series escapes its own envelope at %d", i)
		}
	}
}

func TestLBKeoghZeroInsideEnvelope(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	e := NewEnvelope(v, 2)
	lb, err := LBKeogh(e, v)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Fatalf("LBKeogh of series vs own envelope = %v, want 0", lb)
	}
	if _, err := LBKeogh(e, []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

// The defining property of the index: every lower bound is ≤ the true
// banded DTW distance (Theorem 4.1).
func TestQuickLowerBoundsAreLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(48)
		rho := rng.Intn(8)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		d, err := Distance(q, c, rho)
		if err != nil {
			return false
		}
		eps := 1e-9 * (1 + d)
		lq, err := LBEQ(q, c, rho)
		if err != nil || lq > d+eps {
			return false
		}
		lc, err := LBEC(q, c, rho)
		if err != nil || lc > d+eps {
			return false
		}
		le, err := LBEn(q, c, rho)
		if err != nil || le > d+eps {
			return false
		}
		return le >= lq-eps && le >= lc-eps // max dominates both
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLBEnErrors(t *testing.T) {
	if _, err := LBEn([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("expected length error")
	}
}

func TestDistanceEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := randSeries(rng, 30)
	c := randSeries(rng, 30)
	d, _ := Distance(q, c, 4)

	got, ok, err := DistanceEarlyAbandon(q, c, 4, d+1)
	if err != nil || !ok {
		t.Fatalf("should complete under loose threshold: ok=%v err=%v", ok, err)
	}
	if math.Abs(got-d) > 1e-9 {
		t.Fatalf("early-abandon distance %v != %v", got, d)
	}

	_, ok, err = DistanceEarlyAbandon(q, c, 4, d/1000)
	if err != nil {
		t.Fatal(err)
	}
	if ok && d > 0 {
		t.Fatal("should abandon under tight threshold")
	}
}

// Property: early-abandon with an always-sufficient threshold agrees
// with the reference implementation.
func TestQuickEarlyAbandonAgreesWhenNotAbandoned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		rho := rng.Intn(6)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		want, err := Distance(q, c, rho)
		if err != nil {
			return false
		}
		got, ok, err := DistanceEarlyAbandon(q, c, rho, want*2+1)
		return err == nil && ok && math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DTW distance never increases as the band widens.
func TestQuickDTWMonotoneInBand(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		prev := math.Inf(1)
		for rho := 0; rho <= 6; rho++ {
			d, err := Distance(q, c, rho)
			if err != nil {
				return false
			}
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistanceFull64(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	q := randSeries(rng, 64)
	c := randSeries(rng, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(q, c, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel times the verify kernel at the serving shape (d=64, ρ=8,
// pooled scratch) and requires it to allocate nothing. The cutoff is
// either +Inf, which never abandons, or the pair's true distance — the
// tightest cutoff that still runs every column.
func benchKernel(b *testing.B, cutoffAtTruth bool) {
	rng := rand.New(rand.NewSource(12))
	q := randSeries(rng, 64)
	c := randSeries(rng, 64)
	scratch := GetCompressedScratch(8)
	defer PutCompressedScratch(scratch)
	at := math.Inf(1)
	if cutoffAtTruth {
		var err error
		if at, err = DistanceCompressed(q, c, 8, scratch); err != nil {
			b.Fatal(err)
		}
	}
	run := func() {
		if _, cols, err := DistanceCompressedAbandon(q, c, 8, at, scratch); err != nil || cols != 64 {
			b.Fatalf("cols=%d err=%v", cols, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		b.Fatalf("kernel allocates %v times per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkDistanceCompressed64(b *testing.B) {
	benchKernel(b, false)
}

func BenchmarkDistanceCompressedAbandon64(b *testing.B) {
	benchKernel(b, true)
}

func BenchmarkLBEn64(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	q := randSeries(rng, 64)
	c := randSeries(rng, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LBEn(q, c, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLBKim(t *testing.T) {
	q := []float64{1, 5, 9}
	c := []float64{2, 0, 7}
	lb, err := LBKim(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 1+4 {
		t.Fatalf("LBKim = %v, want 5", lb)
	}
	one, err := LBKim([]float64{3}, []float64{1})
	if err != nil || one != 4 {
		t.Fatalf("LBKim single = %v err=%v", one, err)
	}
	if _, err := LBKim(nil, nil); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := LBKim([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// Property: LBKim never exceeds the banded DTW distance.
func TestQuickLBKimIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		rho := rng.Intn(8)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		d, err := Distance(q, c, rho)
		if err != nil {
			return false
		}
		lb, err := LBKim(q, c)
		if err != nil {
			return false
		}
		return lb <= d+1e-9*(1+d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
