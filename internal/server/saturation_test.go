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
)

// TestControlPlaneResponsiveUnderSaturatedIngest is the regression
// guard for a failure mode load testing exposed the risk of: when the
// ingest pipeline is saturated, observe handlers park in ServeHTTP
// waiting for queue space — and the
// control-plane routes (/metrics, /readyz, /pipeline/stats) must NOT
// be dragged down with them, or operators lose exactly the telemetry
// that explains the overload.
//
// Saturation is manufactured deterministically: one shard, a Journal
// hook that blocks the shard worker until released, and one request
// that fills the shard's queue, so queued observations cannot drain.
func TestControlPlaneResponsiveUnderSaturatedIngest(t *testing.T) {
	const queueCap = 256 // internal/ingest's per-shard queue capacity
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
			Journal: func(shard int, id string, v float64) error {
				select {
				case parked <- struct{}{}:
				default:
				}
				<-release // stall the single shard worker
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Release the worker no matter how the test exits, so Close and the
	// parked handlers can finish.
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()

	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Registration bypasses the pipeline (history is applied
	// synchronously), so setup succeeds with the worker already stalled.
	rng := rand.New(rand.NewSource(11))
	if err := cl.AddSensor("sat", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}

	// Saturate: the worker takes the first observation off the queue
	// on its own and parks on its journal call, one request fills the
	// queue, and every writer after it blocks inside its observe
	// handler, waiting for space.
	if err := cl.Observe("sat", -1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked: // the worker closed its batch on the first observation alone
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first observation")
	}
	if err := cl.ObserveBatch("sat", make([]float64, queueCap)); err != nil {
		t.Fatal(err)
	}
	const writers = 6
	done := make(chan error, writers)
	for i := 0; i < writers; i++ {
		v := float64(i)
		go func() {
			body := bytes.NewReader([]byte(fmt.Sprintf(`{"value": %g}`, v)))
			resp, err := http.Post(ts.URL+"/sensors/sat/observe", "application/json", body)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	if st := srv.Pipeline().Stats().Totals; st.Enqueued != 1+queueCap || st.QueueDepth != queueCap || st.Processed != 0 {
		t.Fatalf("pipeline not saturated: %+v", st)
	}

	// The control plane must answer promptly while data-plane handlers
	// are parked. 2s is generous — these are sub-millisecond routes; the
	// bound only has to distinguish "responsive" from "waiting for the
	// queue to drain", which it would do forever.
	quick := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/metrics", "/readyz", "/pipeline/stats", "/healthz"} {
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
	// dropped and not errored.
	select {
	case err := <-done:
		t.Fatalf("an observe returned (%v) while the queue was full", err)
	case <-time.After(300 * time.Millisecond):
	}
	if st := srv.Pipeline().Stats(); st.Totals.Dropped != 0 || st.Totals.Errors != 0 || st.Totals.Enqueued != 1+queueCap {
		t.Fatalf("wedged pipeline leaked ops: %+v", st.Totals)
	}

	// Release the worker: every parked observe must now complete
	// successfully — blocked, not lost.
	unblock()
	for i := 0; i < writers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("observe failed after release: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("observe still blocked after the pipeline was released")
		}
	}
	if err := srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Pipeline().Stats(); st.Totals.Processed != 1+queueCap+writers {
		t.Fatalf("processed %d, want %d", st.Totals.Processed, 1+queueCap+writers)
	}
}
