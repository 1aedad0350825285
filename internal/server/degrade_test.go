package server

import (
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"smiler"
	"smiler/internal/fault"
)

// degradeServer builds a server over a GP system with a persistence
// fallback — the configuration under which injected GP faults turn
// into degraded 200s instead of 500s.
func degradeServer(t *testing.T) (*Client, *smiler.System) {
	t.Helper()
	cfg := testConfig()
	cfg.Predictor = smiler.PredictorGP
	cfg.EKV = []int{4}
	cfg.ELV = []int{16}
	cfg.Fallback = smiler.FallbackPersistence
	sys, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.AddSensor("s", seasonal(rand.New(rand.NewSource(5)), 400)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	cl.retry = RetryPolicy{MaxAttempts: 1}
	return cl, sys
}

// TestDegradedForecastOverHTTP asserts the API contract for degraded
// answers: HTTP 200 with the degraded flag and reason set.
func TestDegradedForecastOverHTTP(t *testing.T) {
	cl, _ := degradeServer(t)
	in := fault.NewInjector(1)
	in.Set(fault.PointGPFit, fault.Rule{Kind: fault.KindError, Prob: 1})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	f, err := cl.Forecast("s", 1)
	if err != nil {
		t.Fatalf("degraded forecast must be HTTP 200, got %v", err)
	}
	if !f.Degraded || f.DegradedReason != "error" {
		t.Fatalf("response = %+v, want degraded with reason \"error\"", f)
	}
	// Degraded answers sit on the bottom rung of the quality ladder.
	if f.Quality != "fallback" || f.QualityEstimate != 0 {
		t.Fatalf("degraded response quality = %q/%v, want fallback/0", f.Quality, f.QualityEstimate)
	}

	fault.Disarm()
	if f, err = cl.Forecast("s", 1); err != nil || f.Degraded {
		t.Fatalf("after disarm: f=%+v err=%v, want clean answer", f, err)
	}
	if f.Quality != "exact" || f.QualityEstimate != 1 {
		t.Fatalf("clean response quality = %q/%v, want exact/1", f.Quality, f.QualityEstimate)
	}
}

// TestSurviveThousandPanics hammers the server with forecasts while
// every GP fit panics: the process must survive >=1k recovered panics,
// every response must be a degraded HTTP 200, and the panic counter
// must account for all of them.
func TestSurviveThousandPanics(t *testing.T) {
	cl, sys := degradeServer(t)
	in := fault.NewInjector(2)
	in.Set(fault.PointGPFit, fault.Rule{Kind: fault.KindPanic, Prob: 1})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	// Each worker owns a horizon, and the workers hammer until the
	// recovered-panic counter itself crosses the bar — bounded by wall
	// clock, not by a request count. Every response along the way must
	// be a degraded 200 (a failed answer is never reused).
	const total, workers = 1000, 8
	giveUp := time.Now().Add(time.Minute)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for sys.PanicsRecovered() < total && time.Now().Before(giveUp) {
				f, err := cl.Forecast("s", h)
				if err != nil {
					errs <- err
					return
				}
				if !f.Degraded || f.DegradedReason != "panic" {
					errs <- errDegraded(f)
					return
				}
			}
		}(1 + w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sys.PanicsRecovered(); got < total {
		t.Fatalf("panics recovered = %d, want >= %d", got, total)
	}

	// The process is still fully functional once the fault clears.
	fault.Disarm()
	if f, err := cl.Forecast("s", 1); err != nil || f.Degraded {
		t.Fatalf("after 1k panics and disarm: f=%+v err=%v", f, err)
	}
}

type errDegraded ForecastResponse

func (e errDegraded) Error() string {
	return "response not degraded-by-panic: " + e.DegradedReason
}
