package gpusim

import (
	"math"
	"testing"
)

func TestProfileBreakdown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LaunchOverheadCycles = 100
	cfg.SMs = 1
	cfg.ClockHz = 1
	cfg.GlobalCyclesPerWord = 4
	d := MustNewDevice(cfg)
	err := d.Launch(2, func(b *Block) error {
		b.Compute(10)
		b.GlobalAccess(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Profile()
	if p.ComputeCycles != 20 { // 2 blocks × 10
		t.Fatalf("compute = %v", p.ComputeCycles)
	}
	if p.GlobalCycles != 24 { // 2 × 3 × 4
		t.Fatalf("global = %v", p.GlobalCycles)
	}
	if p.LaunchCycles != 100 {
		t.Fatalf("launch = %v", p.LaunchCycles)
	}
	if p.Launches != 1 || p.Blocks != 2 {
		t.Fatalf("counters = %+v", p)
	}
	// The category breakdown must account for exactly the total time.
	if math.Abs(p.TotalCycles()-d.SimSeconds()) > 1e-9 { // SMs=1, clock=1
		t.Fatalf("breakdown %v != total %v", p.TotalCycles(), d.SimSeconds())
	}
	d.ResetTimer()
	if d.Profile().TotalCycles() != 0 {
		t.Fatal("ResetTimer must clear the profile")
	}
}

func TestProfileParallelComputeCountsAsCompute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LaunchOverheadCycles = 0
	cfg.CoresPerSM = 8
	d := MustNewDevice(cfg)
	if err := d.Launch(1, func(b *Block) error {
		b.ParallelCompute(16, 5) // 2 waves × 5
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Profile().ComputeCycles; got != 10 {
		t.Fatalf("compute = %v, want 10", got)
	}
}
