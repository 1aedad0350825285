package smiler

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestSoakRandomOperations drives a System through a long random
// sequence of API operations (add/remove/predict/multi-predict/observe
// /missing-reading/checkpoint-roundtrip) and checks the global
// invariants after every step: device accounting balances, forecasts
// stay finite with positive variance, ensemble weights stay a
// probability distribution, and a checkpoint round-trip preserves the
// sensor set.
func TestSoakRandomOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(99))
	streams := map[string][]float64{} // remaining unobserved values
	nextID := 0

	checkInvariants := func() {
		t.Helper()
		used, total := sys.DeviceUsage()
		if used < 0 || used > total {
			t.Fatalf("device accounting broken: %d/%d", used, total)
		}
		if len(sys.Sensors()) == 0 && used != 0 {
			t.Fatalf("no sensors but %d device bytes in use", used)
		}
		for _, id := range sys.Sensors() {
			w, err := sys.EnsembleWeights(id)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, v := range w {
				if v < 0 {
					t.Fatalf("sensor %s: negative weight %v", id, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("sensor %s: weights sum to %v", id, sum)
			}
		}
	}

	for step := 0; step < 300; step++ {
		ids := sys.Sensors()
		op := rng.Intn(10)
		switch {
		case op == 0 || len(ids) == 0: // add a sensor
			if len(ids) >= 6 {
				break
			}
			id := string(rune('A' + nextID%26))
			nextID++
			if _, dup := streams[id]; dup {
				break
			}
			scale := 1 + rng.Float64()*20
			offset := rng.NormFloat64() * 50
			series := noisySeasonal(rng, 400+rng.Intn(200), scale, offset)
			warm := 350
			if err := sys.AddSensor(id, series[:warm]); err != nil {
				t.Fatalf("step %d add %s: %v", step, id, err)
			}
			streams[id] = series[warm:]

		case op == 1 && len(ids) > 1: // remove a sensor
			id := ids[rng.Intn(len(ids))]
			if err := sys.RemoveSensor(id); err != nil {
				t.Fatalf("step %d remove %s: %v", step, id, err)
			}
			delete(streams, id)

		case op <= 4: // single-horizon forecast
			id := ids[rng.Intn(len(ids))]
			f, err := sys.Predict(id, 1+rng.Intn(5))
			if err != nil {
				t.Fatalf("step %d predict %s: %v", step, id, err)
			}
			if math.IsNaN(f.Mean) || math.IsInf(f.Mean, 0) || f.Variance <= 0 {
				t.Fatalf("step %d: malformed forecast %+v", step, f)
			}

		case op == 5: // multi-horizon forecast
			id := ids[rng.Intn(len(ids))]
			fs, err := sys.PredictHorizons(id, []int{1, 2, 4})
			if err != nil {
				t.Fatalf("step %d multi %s: %v", step, id, err)
			}
			for h, f := range fs {
				if f.Variance <= 0 {
					t.Fatalf("step %d h=%d: variance %v", step, h, f.Variance)
				}
			}

		case op <= 8: // observe (occasionally a missing reading)
			id := ids[rng.Intn(len(ids))]
			rest := streams[id]
			if len(rest) == 0 {
				break
			}
			v := rest[0]
			if rng.Intn(12) == 0 {
				v = math.NaN()
			}
			if err := sys.Observe(id, v); err != nil {
				t.Fatalf("step %d observe %s: %v", step, id, err)
			}
			streams[id] = rest[1:]

		default: // checkpoint round trip
			var buf bytes.Buffer
			if err := sys.SaveTo(&buf); err != nil {
				t.Fatalf("step %d save: %v", step, err)
			}
			restored, err := Load(&buf, cfg)
			if err != nil {
				t.Fatalf("step %d load: %v", step, err)
			}
			a, b := sys.Sensors(), restored.Sensors()
			if len(a) != len(b) {
				restored.Close()
				t.Fatalf("step %d: sensor count %d vs %d after restore", step, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					restored.Close()
					t.Fatalf("step %d: sensor %q vs %q after restore", step, a[i], b[i])
				}
			}
			restored.Close()
		}
		checkInvariants()
	}
}
