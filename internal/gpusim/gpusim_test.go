package gpusim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testDevice(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewDevice(bad); err == nil {
		t.Fatal("NewDevice should reject bad config")
	}
}

func TestMustNewDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := DefaultConfig()
	bad.ClockHz = 0
	MustNewDevice(bad)
}

func TestMallocFreeAccounting(t *testing.T) {
	d := testDevice(t)
	b1, err := d.Malloc("idx", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.UsedBytes() != 1024 || b1.Bytes() != 1024 || b1.Label() != "idx" {
		t.Fatal("accounting wrong after Malloc")
	}
	if err := d.Free(b1); err != nil {
		t.Fatal(err)
	}
	if d.UsedBytes() != 0 {
		t.Fatal("accounting wrong after Free")
	}
	if err := d.Free(b1); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free err = %v", err)
	}
	if err := d.Free(nil); err == nil {
		t.Fatal("freeing nil should error")
	}
	if _, err := d.Malloc("neg", -1); err == nil {
		t.Fatal("negative malloc should error")
	}
}

func TestMallocOutOfMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 100
	d := MustNewDevice(cfg)
	if _, err := d.Malloc("a", 60); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc("b", 60); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if d.TotalBytes() != 100 {
		t.Fatal("TotalBytes wrong")
	}
}

func TestGrowBooksAgainstOneBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 100
	d := MustNewDevice(cfg)
	b, err := d.Malloc("idx", 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Grow(b, 50); err != nil {
		t.Fatal(err)
	}
	if d.UsedBytes() != 90 || b.Bytes() != 90 {
		t.Fatalf("after Grow: used %d, buffer %d, want 90/90", d.UsedBytes(), b.Bytes())
	}
	// A refused grow changes nothing.
	if err := d.Grow(b, 11); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if d.UsedBytes() != 90 || b.Bytes() != 90 {
		t.Fatalf("after refused Grow: used %d, buffer %d, want 90/90", d.UsedBytes(), b.Bytes())
	}
	if err := d.Grow(b, 10); err != nil { // exactly to the budget
		t.Fatal(err)
	}
	if err := d.Grow(b, -1); err == nil {
		t.Fatal("negative growth should error")
	}
	if err := MustNewDevice(cfg).Grow(b, 1); err == nil {
		t.Fatal("growing a foreign buffer should error")
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
	if d.UsedBytes() != 0 {
		t.Fatalf("after Free: used %d, want 0", d.UsedBytes())
	}
	if err := d.Grow(b, 1); !errors.Is(err, ErrFreed) {
		t.Fatalf("Grow after Free err = %v, want ErrFreed", err)
	}
}

func TestLaunchRunsEveryBlockOnce(t *testing.T) {
	d := testDevice(t)
	const grid = 257
	var seen [grid]atomic.Int32
	err := d.Launch(grid, func(b *Block) error {
		seen[b.ID].Add(1)
		b.Compute(10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("block %d ran %d times", i, seen[i].Load())
		}
	}
	if d.BlocksRun() != grid || d.Launches() != 1 {
		t.Fatal("launch counters wrong")
	}
	if d.SimSeconds() <= 0 {
		t.Fatal("simulated time should be positive")
	}
}

// A one-block launch runs on the caller's goroutine and allocates only
// its Block: no goroutine, WaitGroup or closure, whose allocations would
// depend on how the scheduler and the GC interleave with the launch.
func TestOneBlockLaunchRunsInline(t *testing.T) {
	d := testDevice(t)
	kernel := func(b *Block) error { b.Compute(1); return nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Launch(1, kernel) }); allocs > 1 {
		t.Fatalf("a one-block launch made %v allocations, want at most its Block", allocs)
	}
	// One CPU: the whole grid runs inline, in order, and every block runs
	// even after one fails.
	d.workers = 1
	sentinel := errors.New("kernel boom")
	ran := 0
	err := d.Launch(4, func(b *Block) error {
		if b.ID != ran {
			t.Errorf("block %d ran after %d blocks: a one-worker grid runs in order", b.ID, ran)
		}
		ran++
		if b.ID == 1 || b.ID == 2 {
			return fmt.Errorf("block %d: %w", b.ID, sentinel)
		}
		return nil
	})
	if ran != 4 || err == nil || err.Error() != "block 1: kernel boom" {
		t.Fatalf("ran %d blocks, err %v; want all 4 and the first error", ran, err)
	}
}

func TestLaunchErrors(t *testing.T) {
	d := testDevice(t)
	if err := d.Launch(0, func(b *Block) error { return nil }); err == nil {
		t.Fatal("grid 0 should error")
	}
	sentinel := errors.New("kernel boom")
	err := d.Launch(8, func(b *Block) error {
		if b.ID == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestCostModelAccumulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LaunchOverheadCycles = 0
	cfg.SMs = 1
	cfg.ClockHz = 1 // 1 cycle == 1 second for easy math
	d := MustNewDevice(cfg)
	err := d.Launch(1, func(b *Block) error {
		b.Compute(10)     // 10 cycles
		b.GlobalAccess(2) // 2*4 = 8
		b.SharedAccess(5) // 5
		b.Diverge(3, 4)   // 7
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 + 8 + 5 + 7
	if got := d.SimSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SimSeconds = %v, want %v", got, want)
	}
	d.ResetTimer()
	if d.SimSeconds() != 0 || d.Launches() != 0 || d.BlocksRun() != 0 {
		t.Fatal("ResetTimer incomplete")
	}
}

func TestParallelComputeWaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LaunchOverheadCycles = 0
	cfg.SMs = 1
	cfg.ClockHz = 1
	cfg.CoresPerSM = 32
	d := MustNewDevice(cfg)
	err := d.Launch(1, func(b *Block) error {
		b.ParallelCompute(33, 10) // 2 waves × 10 ops
		b.ParallelCompute(0, 10)  // no-op
		b.ParallelCompute(4, 0)   // no-op
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.SimSeconds(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("SimSeconds = %v, want 20", got)
	}
}

func TestAllocShared(t *testing.T) {
	d := testDevice(t)
	err := d.Launch(1, func(b *Block) error {
		if err := b.AllocShared(40 << 10); err != nil {
			return err
		}
		if b.SharedUsed() != 40<<10 {
			t.Error("SharedUsed wrong")
		}
		if err := b.AllocShared(16 << 10); !errors.Is(err, ErrSharedMemExceeded) {
			t.Errorf("over-allocation err = %v", err)
		}
		if err := b.AllocShared(-1); err == nil {
			t.Error("negative shared alloc should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKSelectBlockBasic(t *testing.T) {
	d := testDevice(t)
	dists := []float64{5, 1, 4, 2, 3}
	var got []KSelectResult
	if err := d.Launch(1, func(b *Block) error {
		got = KSelectBlock(b, dists, 3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{1, 3, 4}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for i, r := range got {
		if r.Index != wantIdx[i] {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestKSelectBlockSkipsInfAndNaN(t *testing.T) {
	d := testDevice(t)
	inf := math.Inf(1)
	dists := []float64{inf, 2, math.NaN(), 1, inf}
	var got []KSelectResult
	if err := d.Launch(1, func(b *Block) error {
		got = KSelectBlock(b, dists, 4)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Index != 3 || got[1].Index != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestKSelectBlockDegenerate(t *testing.T) {
	d := testDevice(t)
	if err := d.Launch(1, func(b *Block) error {
		if KSelectBlock(b, nil, 3) != nil {
			t.Error("empty input should return nil")
		}
		if KSelectBlock(b, []float64{1}, 0) != nil {
			t.Error("k=0 should return nil")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Property: KSelectBlock returns exactly the k smallest values in
// ascending order, agreeing with a full stable sort — among equal values
// the smallest indices win, also when the tie straddles the k-th place.
func TestQuickKSelectAgreesWithSort(t *testing.T) {
	d := testDevice(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = math.Round(rng.Float64() * 10) // eleven levels: ties everywhere
		}
		var got []KSelectResult
		if err := d.Launch(1, func(b *Block) error {
			got = KSelectBlock(b, dists, k)
			return nil
		}); err != nil {
			return false
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i, r := range got {
			if r.Index != order[i] || r.Value != dists[order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLaunch1024Blocks(b *testing.B) {
	d := testDevice(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Launch(1024, func(blk *Block) error {
			blk.Compute(100)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKSelect4096(b *testing.B) {
	d := testDevice(b)
	rng := rand.New(rand.NewSource(42))
	dists := make([]float64, 4096)
	for i := range dists {
		dists[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Launch(1, func(blk *Block) error {
			KSelectBlock(blk, dists, 32)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
