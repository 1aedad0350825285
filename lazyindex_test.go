package smiler

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"smiler/internal/fault"
)

// Semi-lazy index maintenance is invisible above internal/index: these
// tests pin the places where a sensor's index may be unbuilt or behind
// its history when something else happens to the sensor.

func sameForecastBits(t *testing.T, what string, got, want Forecast) {
	t.Helper()
	if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
		math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
		t.Fatalf("%s: forecast %+v != reference %+v", what, got, want)
	}
}

// A sensor that is only ever observed never builds its index; spilling
// it, faulting it back and forecasting it must match an untiered twin
// bit for bit, whether the spill caught the index unbuilt or behind.
func TestUnbuiltSensorSurvivesSpill(t *testing.T) {
	for _, kind := range []PredictorKind{PredictorAR, PredictorGP} {
		cfg := tieredConfig(1)
		cfg.Predictor = kind
		refCfg := cfg
		refCfg.MaxHotSensors = 0
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		ref, err := New(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		rng := rand.New(rand.NewSource(70))
		streams := map[string][]float64{
			"a": noisySeasonal(rng, 440, 5, 50),
			"b": noisySeasonal(rng, 440, 7, 20),
		}
		const warm = 400
		for _, s := range []*System{sys, ref} {
			for _, id := range []string{"a", "b"} { // adding b spills a, never built
				if err := s.AddSensor(id, streams[id][:warm]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !sys.tier.isCold("a") {
			t.Fatal("a should have been spilled by b's registration")
		}
		next := warm
		for round := 0; round < 3; round++ {
			// a is observed (faulted in, still unbuilt on the first round,
			// behind on later ones), then spilled again by b's forecast.
			for i := 0; i < 5; i++ {
				for _, s := range []*System{sys, ref} {
					if err := s.Observe("a", streams["a"][next]); err != nil {
						t.Fatal(err)
					}
				}
				next++
			}
			for _, id := range []string{"b", "a"} {
				got, err := sys.Predict(id, 2)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Predict(id, 2)
				if err != nil {
					t.Fatal(err)
				}
				sameForecastBits(t, kind.String()+" "+id, got, want)
			}
		}
		if st := sys.Tiering(); st.Faults < 6 {
			t.Fatalf("the rounds should have churned the single hot slot: %+v", st)
		}
	}
}

// A checkpoint taken while sensors have observations their indexes have
// not folded in yet restores to the same forecasts: history is the only
// index state a checkpoint carries.
func TestCheckpointWithPendingCatchup(t *testing.T) {
	for _, kind := range []PredictorKind{PredictorAR, PredictorGP} {
		cfg := smallConfig()
		cfg.Predictor = kind
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		addSeeded(t, sys, 3)
		ids := sys.Sensors()
		// t0 is built and behind, t1 was never forecast, t2 is in step.
		for _, id := range []string{"t0", "t2"} {
			if _, err := sys.Predict(id, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 7; i++ {
			for _, id := range []string{"t0", "t1"} {
				if err := sys.Observe(id, 50+float64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := sys.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		got, err := restored.RestoreSensorsFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("restored %v, want %v", got, ids)
		}
		for _, id := range ids {
			want, err := sys.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			have, err := restored.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			for h := range want {
				sameForecastBits(t, kind.String()+" "+id, have[h], want[h])
			}
		}
	}
}

// Device memory stays booked eagerly: registration and every completed
// disjoint window reserve what the index will occupy once built, and a
// forecast — which does the building — reserves nothing more.
func TestDeviceUsageBookedEagerly(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const n, observes = 403, 30
	hist := noisySeasonal(rand.New(rand.NewSource(71)), n+observes, 5, 50)
	if err := sys.AddSensor("s", hist[:n]); err != nil {
		t.Fatal(err)
	}
	nSW := cfg.ELV[len(cfg.ELV)-1] - cfg.Omega + 1
	booked := func(historyPoints, length int) int64 {
		return int64(8 * (historyPoints + 2*nSW*(length/cfg.Omega)))
	}
	if used, _ := sys.DeviceUsage(); used != booked(n, n) {
		t.Fatalf("after AddSensor: %d bytes booked, want %d", used, booked(n, n))
	}
	for _, v := range hist[n:] {
		if err := sys.Observe("s", v); err != nil {
			t.Fatal(err)
		}
	}
	// Appended points are booked at the disjoint-window completion that
	// follows them; the last one here is at the largest multiple of ω.
	end := n + observes
	want := booked(end-end%cfg.Omega, end)
	if used, _ := sys.DeviceUsage(); used != want {
		t.Fatalf("after %d observes: %d bytes booked, want %d", observes, used, want)
	}
	if _, err := sys.Predict("s", 1); err != nil {
		t.Fatal(err)
	}
	if used, _ := sys.DeviceUsage(); used != want {
		t.Fatalf("a forecast moved the booking to %d, want %d", used, want)
	}
}

// A device fault inside a forecast's catch-up must not poison the
// index: the failed forecast changes nothing, and the next one equals an
// undisturbed twin's bit for bit.
func TestCatchupFaultHeals(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	twin, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	hist := noisySeasonal(rand.New(rand.NewSource(72)), 440, 5, 50)
	const warm = 400
	next := warm
	step := func(s *System) Forecast {
		t.Helper()
		f, err := s.Predict("s", 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, s := range []*System{sys, twin} {
		if err := s.AddSensor("s", hist[:warm]); err != nil {
			t.Fatal(err)
		}
		step(s)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			for _, s := range []*System{sys, twin} {
				if err := s.Observe("s", hist[next]); err != nil {
					t.Fatal(err)
				}
			}
			next++
		}
		// The first launch of the next forecast is its catch-up launch.
		in := fault.NewInjector(1)
		in.Set(fault.PointGPUSimLaunch, fault.Rule{Kind: fault.KindError, After: 1, Once: true})
		fault.Arm(in)
		_, err := sys.Predict("s", 1)
		fault.Disarm()
		if err == nil || in.Fired(fault.PointGPUSimLaunch) != 1 {
			t.Fatalf("round %d: the armed forecast should have failed at its catch-up launch, err = %v", round, err)
		}
		sameForecastBits(t, "after the fault", step(sys), step(twin))
	}
	var buf strings.Builder
	sys.Metrics().WritePrometheus(&buf)
	// One initial build, then per round one rebuild healing the fault.
	for _, line := range []string{"smiler_index_builds_total 4", "smiler_index_catchup_steps_total 12"} {
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("exposition lacks %q", line)
		}
	}
}
