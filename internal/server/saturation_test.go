package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/wal"
)

// TestControlPlaneResponsiveUnderSaturatedIngest is the regression
// guard for a failure mode load testing exposed the risk of: when the
// ingest pipeline is saturated, observe handlers park in ServeHTTP
// waiting for their shard — and the control-plane routes (/metrics,
// /readyz, /pipeline/stats, /healthz) and forecasts must NOT be dragged
// down with them, or operators lose exactly the telemetry that explains
// the overload.
//
// Saturation is manufactured deterministically: one shard and a
// Journal hook that blocks observations until released, so the first
// writer holds the shard's lock inside its handler and every writer
// after it waits for that lock inside its own.
func TestControlPlaneResponsiveUnderSaturatedIngest(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := NewWithOptions(sys, Options{
		Pipeline: ingest.Config{
			Shards: 1,
			Journal: func(r wal.Record) error {
				if r.Type != wal.RecObserve {
					return nil // registration goes through
				}
				select {
				case parked <- struct{}{}:
				default:
				}
				<-release // stall the writer holding the shard
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Release the writers no matter how the test exits, so Close and
	// the parked handlers can finish.
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()

	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Registration journals through the same hook, which lets it
	// through: setup ends before the shard is held.
	rng := rand.New(rand.NewSource(11))
	if err := cl.AddSensor("sat", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}

	// Saturate: the first writer parks on its journal call holding the
	// shard, and every writer after it — single observes and one bulk
	// request — blocks inside its handler, waiting for the shard.
	const writers = 6
	done := make(chan error, writers+2)
	send := func(path, body string) {
		go func() {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s answered %d", path, resp.StatusCode)
				}
			}
			done <- err
		}()
	}
	send("/sensors/sat/observe", `{"value": -1}`)
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the first writer never reached its journal call")
	}
	for i := 0; i < writers; i++ {
		send("/sensors/sat/observe", fmt.Sprintf(`{"value": %d}`, i))
	}
	send("/observations", `{"observations":[{"id":"sat","value":1},{"id":"sat","value":2}]}`)

	// The control plane and the read path must answer promptly while
	// data-plane handlers are parked. 2s is generous — these are
	// sub-millisecond routes; the bound only has to distinguish
	// "responsive" from "waiting for the shard", which it would do
	// forever.
	quick := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/metrics", "/readyz", "/pipeline/stats", "/healthz", "/sensors/sat/forecast?h=1"} {
		start := time.Now()
		resp, err := quick.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while saturated: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while saturated = %d", path, resp.StatusCode)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("GET %s took %v under saturation", path, el)
		}
	}

	// Every writer must stay parked in its handler: blocked, not
	// dropped, not errored and not applied.
	select {
	case err := <-done:
		t.Fatalf("a write returned (%v) while the shard was held", err)
	case <-time.After(300 * time.Millisecond):
	}
	if st := srv.Pipeline().Stats(); st.Totals.Dropped != 0 || st.Totals.Errors != 0 || st.Totals.Processed != 0 {
		t.Fatalf("wedged pipeline leaked ops: %+v", st.Totals)
	}

	// Release: every parked write must now complete successfully —
	// blocked, not lost.
	unblock()
	for i := 0; i < writers+2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("write failed after release: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a write still blocked after the shard was released")
		}
	}
	if st := srv.Pipeline().Stats(); st.Totals.Processed != 1+writers+2 {
		t.Fatalf("processed %d, want %d", st.Totals.Processed, 1+writers+2)
	}
}
