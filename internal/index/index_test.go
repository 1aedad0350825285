package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"smiler/internal/gpusim"
	"smiler/internal/scan"
)

func testDevice(t testing.TB) *gpusim.Device {
	t.Helper()
	return gpusim.MustNewDevice(gpusim.DefaultConfig())
}

func randwalk(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.3
		out[i] = v
	}
	return out
}

func smallParams() Params {
	return Params{Rho: 3, Omega: 8, ELV: []int{16, 24, 40}}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Params{
		{Rho: -1, Omega: 16, ELV: []int{32}},
		{Rho: 8, Omega: 1, ELV: []int{32}},
		{Rho: 8, Omega: 16, ELV: nil},
		{Rho: 8, Omega: 16, ELV: []int{16}},         // < 2ω−1
		{Rho: 8, Omega: 16, ELV: []int{64, 32}},     // not ascending
		{Rho: 8, Omega: 16, ELV: []int{32, 32}},     // not strict
		{Rho: 8, Omega: 16, ELV: []int{32}, LB: 99}, // bad mode
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d (%+v): expected validation error", i, p)
		}
	}
}

func TestLBModeString(t *testing.T) {
	if LBModeEn.String() != "LBen" || LBModeEQ.String() != "LBEQ" || LBModeEC.String() != "LBEC" {
		t.Fatal("LBMode strings wrong")
	}
	if LBMode(42).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestNewErrors(t *testing.T) {
	dev := testDevice(t)
	if _, err := New(dev, make([]float64, 10), smallParams()); err == nil {
		t.Fatal("expected error for short history")
	}
	bad := smallParams()
	bad.Omega = 0
	if _, err := New(dev, make([]float64, 500), bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestNewReleasesMemoryOnClose(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(1))
	ix, err := New(dev, randwalkN(rng, 400), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if dev.UsedBytes() == 0 {
		t.Fatal("index should reserve device memory")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.UsedBytes() != 0 {
		t.Fatalf("device memory leaked: %d bytes", dev.UsedBytes())
	}
	if err := ix.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := ix.Advance(1); err == nil {
		t.Fatal("Advance after Close should fail")
	}
	if _, err := ix.Search(4, 1); err == nil {
		t.Fatal("Search after Close should fail")
	}
}

func randwalkN(rng *rand.Rand, n int) []float64 { return randwalk(rng, n) }

// The index's group-level lower bound must never exceed the true
// banded DTW distance (Theorem 4.3), for every item query and position.
func TestGroupLevelLowerBoundIsLowerBound(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(2))
	p := smallParams()
	hist := randwalk(rng, 300)
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	checkLowerBounds(t, ix, 2)
}

// Every valid position must receive a finite lower bound (coverage of
// the alignment enumeration, Theorem 4.2).
func TestGroupLevelCoverage(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(3))
	p := smallParams()
	hist := randwalk(rng, 257) // deliberately not a multiple of ω
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const h = 1
	lbs, err := ix.ComputeLowerBounds(h)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p.ELV {
		for tpos, lb := range lbs[i] {
			if math.IsInf(lb, 1) {
				t.Fatalf("d=%d: position %d has no lower bound", d, tpos)
			}
		}
	}
}

func neighborsMatch(t *testing.T, got []Neighbor, want []scan.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d neighbours, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Fatalf("neighbour %d: dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(4))
	p := smallParams()
	hist := randwalk(rng, 400)
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, k := range []int{1, 4, 16} {
		for _, h := range []int{1, 5} {
			res, err := ix.Search(k, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(p.ELV) {
				t.Fatalf("got %d item results", len(res))
			}
			for i, d := range p.ELV {
				if res[i].D != d {
					t.Fatalf("item %d: D=%d want %d", i, res[i].D, d)
				}
				want, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, k, h)
				if err != nil {
					t.Fatal(err)
				}
				neighborsMatch(t, res[i].Neighbors, want)
			}
		}
	}
}

func TestSearchArgErrors(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(5))
	ix, err := New(dev, randwalk(rng, 300), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := ix.Search(4, 0); err == nil {
		t.Fatal("h=0 should fail")
	}
}

// Continuous prediction: advance the stream many steps (crossing
// disjoint-window boundaries) and verify the reused index stays exact.
func TestContinuousAdvanceStaysExact(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(6))
	p := smallParams()
	all := randwalk(rng, 360)
	warm := 300
	ix, err := New(dev, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const k, h = 8, 3
	if _, err := ix.Search(k, h); err != nil { // prime prevNN reuse path
		t.Fatal(err)
	}
	for step := warm; step < len(all); step++ {
		if err := ix.Advance(all[step]); err != nil {
			t.Fatal(err)
		}
		if (step-warm)%7 != 0 { // search on a stride to keep the test fast
			continue
		}
		hist := all[:step+1]
		res, err := ix.Search(k, h)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range p.ELV {
			want, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, k, h)
			if err != nil {
				t.Fatal(err)
			}
			neighborsMatch(t, res[i].Neighbors, want)
		}
	}
	if ix.Len() != len(all) {
		t.Fatal("Len wrong after advances")
	}
}

// The rebuild-from-scratch path must agree with the incremental path.
func TestAdvanceRebuildAgreesWithAdvance(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(7))
	p := smallParams()
	all := randwalk(rng, 330)
	warm := 300
	a, err := New(dev, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(dev, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for step := warm; step < len(all); step++ {
		if err := a.Advance(all[step]); err != nil {
			t.Fatal(err)
		}
		if err := b.AdvanceRebuild(all[step]); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := a.Search(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if len(ra[i].Neighbors) != len(rb[i].Neighbors) {
			t.Fatalf("item %d: neighbour counts differ", i)
		}
		for j := range ra[i].Neighbors {
			if math.Abs(ra[i].Neighbors[j].Dist-rb[i].Neighbors[j].Dist) > 1e-9 {
				t.Fatalf("item %d neighbour %d: %v vs %v", i, j,
					ra[i].Neighbors[j].Dist, rb[i].Neighbors[j].Dist)
			}
		}
	}
}

// All three LB modes must return identical (exact) kNN distances; they
// only differ in filtering power.
func TestLBModesAllExact(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(8))
	hist := randwalk(rng, 400)
	var base []ItemResult
	survivors := map[LBMode]int{}
	for _, mode := range []LBMode{LBModeEn, LBModeEQ, LBModeEC} {
		p := smallParams()
		p.LB = mode
		ix, err := New(dev, hist, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Search(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		survivors[mode] = st.Unfiltered + st.Sealed + st.CascadePruned
		if st.Candidates == 0 {
			t.Fatal("stats should count candidates")
		}
		if base == nil {
			base = res
		} else {
			for i := range res {
				for j := range res[i].Neighbors {
					if math.Abs(res[i].Neighbors[j].Dist-base[i].Neighbors[j].Dist) > 1e-9 {
						t.Fatalf("mode %v: distance mismatch", mode)
					}
				}
			}
		}
		ix.Close()
	}
	// The enhanced bound dominates both single bounds pointwise, so
	// with the same exact thresholds it can never let more through the
	// filter. (How many of those the kernel then runs on depends on the
	// order the rounds meet them in, which differs between the modes.)
	if survivors[LBModeEn] > survivors[LBModeEQ] || survivors[LBModeEn] > survivors[LBModeEC] {
		t.Fatalf("LBen filtered worse than a single bound: %v", survivors)
	}
}

func TestMasterQueryAndAccessors(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(10))
	hist := randwalk(rng, 300)
	p := smallParams()
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	mq := ix.MasterQuery()
	dmax := p.ELV[len(p.ELV)-1]
	if len(mq) != dmax {
		t.Fatalf("master query length %d, want %d", len(mq), dmax)
	}
	for i := range mq {
		if mq[i] != hist[len(hist)-dmax+i] {
			t.Fatal("master query content wrong")
		}
	}
	if ix.Value(3) != hist[3] {
		t.Fatal("Value wrong")
	}
	if ix.Params().Omega != p.Omega {
		t.Fatal("Params wrong")
	}
}

// Property: on random walks with random shapes, Search equals brute
// force for the largest item query.
func TestQuickSearchExactness(t *testing.T) {
	dev := testDevice(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{Rho: 1 + rng.Intn(4), Omega: 6 + rng.Intn(4), ELV: nil}
		d1 := 2*p.Omega - 1 + rng.Intn(8)
		d2 := d1 + 1 + rng.Intn(12)
		p.ELV = []int{d1, d2}
		n := d2 + p.Omega + 50 + rng.Intn(150)
		hist := randwalk(rng, n)
		ix, err := New(dev, hist, p)
		if err != nil {
			return false
		}
		defer ix.Close()
		k := 1 + rng.Intn(6)
		h := 1 + rng.Intn(4)
		res, err := ix.Search(k, h)
		if err != nil {
			return false
		}
		for i, d := range p.ELV {
			want, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, k, h)
			if err != nil {
				return false
			}
			if len(res[i].Neighbors) != len(want) {
				return false
			}
			for j := range want {
				if math.Abs(res[i].Neighbors[j].Dist-want[j].Dist) > 1e-9*(1+want[j].Dist) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexOutOfDeviceMemory(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.GlobalMemBytes = 1024 // far too small
	dev := gpusim.MustNewDevice(cfg)
	rng := rand.New(rand.NewSource(11))
	_, err := New(dev, randwalk(rng, 300), smallParams())
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if dev.UsedBytes() != 0 {
		t.Fatal("failed construction must not leak device memory")
	}
}

func TestSearchMultiContinuous(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(21))
	p := smallParams()
	all := randwalk(rng, 330)
	ix, err := New(dev, all[:300], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	hs := []int{2, 5}
	for step := 300; step < 320; step++ {
		if err := ix.Advance(all[step]); err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchMulti(6, hs)
		if err != nil {
			t.Fatal(err)
		}
		hist := all[:step+1]
		for _, h := range hs {
			for i, d := range p.ELV {
				want, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, 6, h)
				if err != nil {
					t.Fatal(err)
				}
				neighborsMatch(t, res[h][i].Neighbors, want)
			}
		}
	}
}

func TestSearchMultiErrors(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(22))
	ix, err := New(dev, randwalk(rng, 300), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.SearchMulti(0, []int{1}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := ix.SearchMulti(4, nil); err == nil {
		t.Fatal("empty horizons should fail")
	}
	if _, err := ix.SearchMulti(4, []int{0}); err == nil {
		t.Fatal("h=0 should fail")
	}
	ix.Close()
	if _, err := ix.SearchMulti(4, []int{1}); err == nil {
		t.Fatal("closed index should fail")
	}
}

// Failure injection: a device with too little shared memory per block
// must surface ErrSharedMemExceeded through Search (the compressed
// warping matrix and the query no longer fit — exactly the constraint
// Algorithm 2 is designed around).
func TestSearchSurfacesSharedMemoryExhaustion(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.SharedMemPerBlock = 64 // bytes; absurdly small
	dev := gpusim.MustNewDevice(cfg)
	rng := rand.New(rand.NewSource(30))
	ix, err := New(dev, randwalk(rng, 300), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(4, 1); !errors.Is(err, gpusim.ErrSharedMemExceeded) {
		t.Fatalf("err = %v, want ErrSharedMemExceeded", err)
	}
	if _, err := ix.SearchMulti(4, []int{1, 2}); !errors.Is(err, gpusim.ErrSharedMemExceeded) {
		t.Fatalf("multi err = %v, want ErrSharedMemExceeded", err)
	}
}

// Failure injection: device memory exhaustion while the stream grows
// (a new disjoint window needs posting-plane space) must surface
// ErrOutOfMemory from Advance, not corrupt the index.
func TestAdvanceSurfacesDeviceOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hist := randwalk(rng, 320)
	p := smallParams()
	// First measure the index footprint, then give the device just a
	// little headroom so growth fails quickly.
	probe := gpusim.MustNewDevice(gpusim.DefaultConfig())
	ixProbe, err := New(probe, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	footprint := probe.UsedBytes()
	ixProbe.Close()

	cfg := gpusim.DefaultConfig()
	cfg.GlobalMemBytes = footprint + 64
	dev := gpusim.MustNewDevice(cfg)
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var sawOOM bool
	for i := 0; i < 2*p.Omega; i++ {
		if err := ix.Advance(rng.NormFloat64()); err != nil {
			if !errors.Is(err, gpusim.ErrOutOfMemory) {
				t.Fatalf("err = %v, want ErrOutOfMemory", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("expected OOM when growing past the device budget")
	}
}

// Advance books device memory against the index's one buffer: usage
// after every step equals the sum of the per-window allocations it used
// to make (the history bytes appended since the last booking plus one
// float32 posting-plane column and the window's two float32 envelopes,
// each time a disjoint window completes), a refused grow leaves usage
// and the index unchanged, and Close returns everything.
func TestAdvanceBooksDeviceBytesStepForStep(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := smallParams()
	hist := randwalk(rng, 300)
	nSW := int64(p.ELV[len(p.ELV)-1] - p.Omega + 1)
	perWindow := 2*4*nSW + 2*4*int64(p.Omega)
	footprint := 8*int64(len(hist)) + perWindow*int64(len(hist)/p.Omega)

	dev := testDevice(t)
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	want, unbooked, n := footprint, int64(0), len(hist)
	if got := dev.UsedBytes(); got != want {
		t.Fatalf("after New: used %d, want %d", got, want)
	}
	for step := 0; step < 5*p.Omega+3; step++ {
		if err := ix.Advance(rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
		unbooked += 8
		if (n+1)/p.Omega > n/p.Omega {
			want += unbooked + perWindow
			unbooked = 0
		}
		n++
		if got := dev.UsedBytes(); got != want {
			t.Fatalf("step %d: used %d, want %d", step, got, want)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dev.UsedBytes(); got != 0 {
		t.Fatalf("after Close: used %d, want 0", got)
	}

	cfg := gpusim.DefaultConfig()
	cfg.GlobalMemBytes = footprint // no headroom: the first grow is refused
	tight := gpusim.MustNewDevice(cfg)
	ix, err = New(tight, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	var refused bool
	for step := 0; step < p.Omega && !refused; step++ {
		before := ix.Len()
		err := ix.Advance(rng.NormFloat64())
		switch {
		case err == nil:
		case errors.Is(err, gpusim.ErrOutOfMemory):
			refused = true
			if ix.Len() != before || tight.UsedBytes() != footprint {
				t.Fatalf("refused grow moved state: len %d→%d, used %d, want %d",
					before, ix.Len(), tight.UsedBytes(), footprint)
			}
		default:
			t.Fatalf("err = %v, want ErrOutOfMemory", err)
		}
	}
	if !refused {
		t.Fatal("expected a refused grow within one window")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tight.UsedBytes(); got != 0 {
		t.Fatalf("after Close: used %d, want 0", got)
	}
}

// Stats instrumentation must be populated by searches.
func TestSearchStatsPopulated(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(32))
	ix, err := New(dev, randwalk(rng, 400), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(8, 1); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Candidates == 0 || st.Unfiltered == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Unfiltered > st.Candidates {
		t.Fatalf("unfiltered %d cannot exceed candidates %d", st.Unfiltered, st.Candidates)
	}
	if st.LowerBoundSimSeconds <= 0 || st.VerifySimSeconds <= 0 {
		t.Fatalf("sim time stats not populated: %+v", st)
	}
}

func TestMemoryFootprintMatchesDeviceUsage(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(50))
	ix, err := New(dev, randwalk(rng, 400), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	p := ix.Params()
	nSW, nDW := int64(p.ELV[len(p.ELV)-1]-p.Omega+1), int64(400/p.Omega)
	want := Footprint{HistoryBytes: 8 * 400, PostingBytes: 2 * 4 * nSW * nDW, EnvelopeBytes: 2 * 4 * int64(p.Omega) * nDW}
	fp := ix.MemoryFootprint()
	if fp != want || fp.Total() != fp.HistoryBytes+fp.PostingBytes+fp.EnvelopeBytes {
		t.Fatalf("footprint %+v, want %+v", fp, want)
	}
	if used := dev.UsedBytes(); used != fp.Total() {
		t.Fatalf("device reports %d, footprint says %d", used, fp.Total())
	}
	// Growth keeps them in step, up to the ≤ω points booked lazily at
	// the next disjoint-window completion.
	for i := 0; i < 20; i++ {
		if err := ix.Advance(rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	slack := int64(8 * p.Omega)
	if used := dev.UsedBytes(); used < ix.MemoryFootprint().Total()-slack {
		t.Fatalf("device usage %d fell behind footprint %d", used, ix.MemoryFootprint().Total())
	}
	// Once built, the host tables hold exactly what the footprint counts.
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	fp = ix.MemoryFootprint()
	if held := hostPostingLen(ix) * 4; held != fp.PostingBytes {
		t.Fatalf("posting planes hold %d bytes, footprint counts %d", held, fp.PostingBytes)
	}
	if held := int64(len(ix.dwEnvU)+len(ix.dwEnvL)) * 4; held != fp.EnvelopeBytes {
		t.Fatalf("envelopes hold %d bytes, footprint counts %d", held, fp.EnvelopeBytes)
	}
}

// hostPostingLen is the number of entries the two posting planes hold.
func hostPostingLen(ix *Index) int64 {
	n := 0
	for s := range ix.postEQ {
		n += len(ix.postEQ[s]) + len(ix.postEC[s])
	}
	return int64(n)
}

// MemoryFootprint is what Fig. 12(c)'s sensors-per-device capacity is
// derived from, so it must be what a built index costs the host heap:
// within 10% for a 16,384-point index, where the window level is most
// of it. The measured heap covers New's history copy and the first
// Sync. Two GCs before the first reading empty the sync.Pool victim
// caches, which would otherwise be freed in between.
func TestMemoryFootprintMatchesHeap(t *testing.T) {
	hist := randwalk(rand.New(rand.NewSource(66)), 16384)
	dev := testDevice(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := New(dev, hist, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	fp := ix.MemoryFootprint().Total()
	runtime.KeepAlive(ix)
	runtime.KeepAlive(hist)
	if diff := heap - fp; 10*diff > fp || -10*diff > fp {
		t.Fatalf("building a 16,384-point index added %d heap bytes; its footprint says %d", heap, fp)
	}
	t.Logf("heap %d bytes, footprint %d bytes", heap, fp)
}

// Multiple indexes share one device concurrently (the paper's
// multi-sensor deployment: one index per sensor, more blocks). Each
// goroutine must stay exact while the device interleaves launches.
func TestConcurrentIndexesOnOneDevice(t *testing.T) {
	dev := testDevice(t)
	p := smallParams()
	const sensors = 4
	errs := make(chan error, sensors)
	var wg sync.WaitGroup
	for s := 0; s < sensors; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			all := randwalk(rng, 340)
			ix, err := New(dev, all[:300], p)
			if err != nil {
				errs <- err
				return
			}
			defer ix.Close()
			for step := 300; step < len(all); step++ {
				if err := ix.Advance(all[step]); err != nil {
					errs <- err
					return
				}
				if step%10 != 0 {
					continue
				}
				res, err := ix.Search(5, 2)
				if err != nil {
					errs <- err
					return
				}
				hist := all[:step+1]
				for i, d := range p.ELV {
					want, err := scan.BruteKNN(hist, hist[len(hist)-d:], p.Rho, 5, 2)
					if err != nil {
						errs <- err
						return
					}
					if len(res[i].Neighbors) != len(want) {
						errs <- fmt.Errorf("sensor %d d=%d: %d vs %d neighbours",
							seed, d, len(res[i].Neighbors), len(want))
						return
					}
					for j := range want {
						if math.Abs(res[i].Neighbors[j].Dist-want[j].Dist) > 1e-9*(1+want[j].Dist) {
							errs <- fmt.Errorf("sensor %d: distance mismatch", seed)
							return
						}
					}
				}
			}
		}(int64(s + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A horizon that rises between two forecasts — the benchmark's sensors
// walk 1,1,3,3,6,6 — shortens the label mask, and the most recent of the
// previous neighbours, the segments overlapping the query, fall outside
// it. The threshold must keep the neighbours that are still valid and top
// them up, not fall back to k candidates picked by lower bound alone:
// those have far larger distances, τ is their maximum, and the filter
// lets most of the history through. DisableEarlyAbandon makes Unfiltered
// count every filter survivor, which is what τ decides.
func TestThresholdKeepsSeedsWhenHorizonRises(t *testing.T) {
	hist := randwalk(rand.New(rand.NewSource(1)), 1500)
	p := DefaultParams()
	p.DisableEarlyAbandon = true
	const k = 32
	survivors := func(hs ...int) int {
		ix, err := New(testDevice(t), hist, p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		for _, h := range hs {
			res, err := ix.Search(k, h)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range p.ELV {
				if want := bruteNeighbors(t, hist, d, p.Rho, k, h); !sameNeighbors(res[i].Neighbors, want) {
					t.Fatalf("h=%d d=%d: search %v != brute force %v", h, d, res[i].Neighbors, want)
				}
			}
		}
		return ix.Stats().Unfiltered
	}
	unseeded := survivors(3)    // no previous neighbours: k seeds by lower bound
	allValid := survivors(3, 3) // every previous neighbour is label-valid
	risen := survivors(1, 3)    // the h=1 neighbours at n−d−1 and n−d−2 are not
	// The two or so top-up seeds loosen τ a little against the all-valid
	// case: a quarter more survivors is the slack, measured 8% here.
	if risen >= unseeded || 4*risen > 5*allValid {
		t.Fatalf("survivors after h 1→3: %d; with every seed valid %d, with none %d — the valid seeds were thrown away", risen, allValid, unseeded)
	}
}
