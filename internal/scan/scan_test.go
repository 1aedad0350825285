package scan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
)

func testDevice(t testing.TB) *gpusim.Device {
	t.Helper()
	return gpusim.MustNewDevice(gpusim.DefaultConfig())
}

func randwalk(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.4
		out[i] = v
	}
	return out
}

func distsEqual(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Fatalf("result %d: dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestValidateArgs(t *testing.T) {
	c := []float64{1, 2, 3}
	q := []float64{1, 2}
	if _, err := BruteKNN(c, nil, 1, 1, 1); err == nil {
		t.Fatal("empty query")
	}
	if _, err := BruteKNN(nil, q, 1, 1, 1); err == nil {
		t.Fatal("empty series")
	}
	if _, err := BruteKNN(c, q, 1, 0, 1); err == nil {
		t.Fatal("k=0")
	}
	if _, err := BruteKNN(c, q, 1, 1, 0); err == nil {
		t.Fatal("h=0")
	}
}

func TestBruteKNNTiny(t *testing.T) {
	// series 0..5; query = {4,5} (the suffix); h=1 restricts candidates
	// to t ≤ 6−2−1 = 3.
	c := []float64{0, 1, 2, 3, 4, 5}
	q := []float64{4, 5}
	res, err := BruteKNN(c, q, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].T != 3 { // segment {3,4} is nearest
		t.Fatalf("nearest at %d, want 3", res[0].T)
	}
	if res[0].Dist > res[1].Dist {
		t.Fatal("results unsorted")
	}
}

func TestBruteKNNNoCandidates(t *testing.T) {
	c := []float64{1, 2, 3}
	res, err := BruteKNN(c, []float64{1, 2, 3}, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("expected no candidates")
	}
}

func TestFastGPUScanMatchesBrute(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(1))
	c := randwalk(rng, 600)
	q := c[len(c)-48:]
	want, err := BruteKNN(c, q, 6, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FastGPUScan(dev, c, q, 6, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
}

func TestGPUScanUnbandedDominatesBanded(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(2))
	c := randwalk(rng, 400)
	q := c[len(c)-32:]
	banded, err := FastGPUScan(dev, c, q, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	unbanded, err := GPUScan(dev, c, q, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained DTW distances are ≤ banded distances, so the
	// unbanded 1-NN distance cannot exceed the banded one.
	if unbanded[0].Dist > banded[0].Dist+1e-9 {
		t.Fatalf("unbanded 1-NN %v > banded %v", unbanded[0].Dist, banded[0].Dist)
	}
}

func TestGPUScanMatchesUnbandedBrute(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(3))
	c := randwalk(rng, 300)
	q := c[len(c)-24:]
	got, err := GPUScan(dev, c, q, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteKNN(c, q, len(q), 8, 1) // ρ = d ⇒ unconstrained
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
}

func TestFastCPUScanMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randwalk(rng, 700)
	q := c[len(c)-64:]
	want, err := BruteKNN(c, q, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := FastCPUScan(c, q, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
	if st.Candidates != len(c)-64-3+1 {
		t.Fatalf("candidate count %d wrong", st.Candidates)
	}
	pruned := st.PrunedByLBKim + st.PrunedByLBEQ + st.PrunedByLBEC + st.AbandonedEarly
	if pruned == 0 {
		t.Fatal("expected some pruning on a random walk")
	}
	if st.PrunedByLBKim+st.PrunedByLBEQ+st.PrunedByLBEC+st.AbandonedEarly+st.FullDTW != st.Candidates {
		t.Fatal("stats do not partition the candidates")
	}
}

func TestFastCPUScanNoCandidates(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	res, st, err := FastCPUScan(c, []float64{1, 2, 3}, 1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || st.Candidates != 0 {
		t.Fatal("expected empty result")
	}
}

// Property: all scan variants agree with brute force on random inputs.
func TestQuickScansAgree(t *testing.T) {
	dev := testDevice(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120 + rng.Intn(300)
		d := 8 + rng.Intn(40)
		rho := 1 + rng.Intn(8)
		k := 1 + rng.Intn(10)
		h := 1 + rng.Intn(5)
		c := randwalk(rng, n)
		q := c[len(c)-d:]
		want, err := BruteKNN(c, q, rho, k, h)
		if err != nil {
			return false
		}
		gpu, err := FastGPUScan(dev, c, q, rho, k, h)
		if err != nil {
			return false
		}
		cpu, _, err := FastCPUScan(c, q, rho, k, h)
		if err != nil {
			return false
		}
		if len(gpu) != len(want) || len(cpu) != len(want) {
			return false
		}
		for i := range want {
			if math.Abs(gpu[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				return false
			}
			if math.Abs(cpu[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDirLBenIsLowerBound(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(5))
	c := randwalk(rng, 400)
	elv := []int{16, 24, 40}
	const rho, h = 3, 2
	bounds, st, err := DirLBen(dev, c, elv, rho, h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bounds == 0 || st.SimSeconds <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, d := range elv {
		q := c[len(c)-d:]
		for tpos, lb := range bounds[i] {
			dist, err := dtw.Distance(q, c[tpos:tpos+d], rho)
			if err != nil {
				t.Fatal(err)
			}
			if lb > dist+1e-9*(1+dist) {
				t.Fatalf("d=%d t=%d: LBen %v > DTW %v", d, tpos, lb, dist)
			}
		}
	}
}

func TestDirLBenErrors(t *testing.T) {
	dev := testDevice(t)
	if _, _, err := DirLBen(dev, []float64{1, 2}, nil, 1, 1); err == nil {
		t.Fatal("empty ELV should fail")
	}
	if _, _, err := DirLBen(dev, []float64{1, 2}, []int{10}, 1, 1); err == nil {
		t.Fatal("short series should fail")
	}
}

func BenchmarkFastCPUScan(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	c := randwalk(rng, 4000)
	q := c[len(c)-64:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FastCPUScan(c, q, 8, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastGPUScan(b *testing.B) {
	dev := testDevice(b)
	rng := rand.New(rand.NewSource(7))
	c := randwalk(rng, 4000)
	q := c[len(c)-64:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FastGPUScan(dev, c, q, 8, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}
