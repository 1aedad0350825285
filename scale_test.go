package smiler

import (
	"errors"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
)

func TestMaxHistoryCapsFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hist := noisySeasonal(rng, 2000, 1, 0)

	full, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := full.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	fullUsed, _ := full.DeviceUsage()

	capped := smallConfig()
	capped.MaxHistory = 500
	sys, err := New(capped)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	cappedUsed, _ := sys.DeviceUsage()
	if cappedUsed >= fullUsed {
		t.Fatalf("capped footprint %d should be < full %d", cappedUsed, fullUsed)
	}
	// The capped system still predicts.
	if _, err := sys.Predict("s", 1); err != nil {
		t.Fatal(err)
	}

	bad := smallConfig()
	bad.MaxHistory = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative MaxHistory should fail")
	}
}

// One device and no room on it: AddSensor fails cleanly with the
// device's out-of-memory error, books nothing for the refused sensor,
// and the sensor fits once another is removed.
func TestMultiDeviceOverflowFallback(t *testing.T) {
	cfg := smallConfig()
	cfg.Device.GlobalMemBytes = 30_000 // fits one small index (19,600 B), not two
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(3))
	hist := noisySeasonal(rng, 400, 1, 0)
	if err := sys.AddSensor("a", hist); err != nil {
		t.Fatal(err)
	}
	used, _ := sys.DeviceUsage()
	if used == 0 {
		t.Fatal("the first sensor booked no device memory")
	}
	err = sys.AddSensor("b", hist)
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Nothing leaked on the failure path.
	if after, _ := sys.DeviceUsage(); after != used {
		t.Fatalf("device usage %d after the refused sensor, %d before", after, used)
	}
	if sys.HasSensor("b") {
		t.Fatal("the refused sensor is registered")
	}
	if err := sys.RemoveSensor("a"); err != nil {
		t.Fatal(err)
	}
	// With space freed, the sensor fits.
	if err := sys.AddSensor("b", hist); err != nil {
		t.Fatal(err)
	}
}
