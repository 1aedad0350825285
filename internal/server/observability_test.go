package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smiler"
	"smiler/internal/obs"
)

// addPredictSensor registers a sensor and runs one prediction so the
// registry and trace store have real data.
func addPredictSensor(t *testing.T, cl *Client, id string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	if err := cl.AddSensor(id, seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Forecast(id, 1); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	addPredictSensor(t, cl, "m1")

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE smiler_predictions_total counter",
		`smiler_predictions_total{quality="exact"} 1`,
		"# TYPE smiler_predict_phase_seconds histogram",
		`smiler_predict_phase_seconds_bucket{phase="search",le="+Inf"} 1`,
		`smiler_predict_phase_seconds_count{phase="total"} 1`,
		"smiler_knn_candidates_total",
		"smiler_knn_pruned_total",
		"smiler_knn_unfiltered_total",
		"smiler_knn_sealed_total",
		"smiler_knn_cascade_pruned_total",
		"smiler_dtw_columns_total",
		"smiler_sensors 1",
		`smiler_ingest_processed_total{shard="0"}`,
		"smiler_forecast_cache_hits_total",
		"smiler_forecast_cache_misses_total 1",
		"smiler_gp_fits_total",
		"# TYPE smiler_gp_optimizer_evals_total counter",
		"# TYPE smiler_gp_optimizer_gradients_total counter",
		"# TYPE smiler_gp_optimizations_total counter",
		`smiler_gp_optimizations_total{start="cold"}`,
		`smiler_gp_optimizations_total{start="seeded"}`,
		`smiler_gp_optimizations_total{start="warm"}`,
		`smiler_gp_optimizations_total{start="fallback"}`,
		`smiler_http_requests_total{route="/sensors",method="POST",status="201"} 1`,
		"smiler_http_request_seconds_bucket",
		`smiler_http_request_seconds_count{route="/sensors",code="201"} 1`,
		`smiler_http_request_seconds_count{route="/sensors/{id}/forecast",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

func TestMetricsDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DisableMetrics = true
	sys, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if resp, _ := get(t, ts, "/metrics"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with metrics disabled = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/trace/x"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace with metrics disabled = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/events"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/events with metrics disabled = %d, want 404", resp.StatusCode)
	}
	// The rest of the API must still work with a nil registry.
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	addPredictSensor(t, cl, "quiet")
}

func TestTraceEndpoint(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	addPredictSensor(t, cl, "t1")
	if _, err := cl.Forecast("t1", 2); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts, "/debug/trace/t1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var traces []obs.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	// Newest first: the horizon-2 call is traces[0].
	if traces[0].Horizons[0] != 2 || traces[1].Horizons[0] != 1 {
		t.Fatalf("trace order: %v then %v", traces[0].Horizons, traces[1].Horizons)
	}
	tr := traces[0]
	if tr.Sensor != "t1" || tr.TotalS <= 0 || tr.Error != "" {
		t.Fatalf("trace header = %+v", tr)
	}
	spans := make(map[string]bool)
	for _, sp := range tr.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"search", "lower_bound", "verify", "mix"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (have %v)", want, tr.Spans)
		}
	}
	hasFit := false
	for name := range spans {
		if strings.HasSuffix(name, "_fit") {
			hasFit = true
		}
	}
	if !hasFit {
		t.Errorf("trace missing a per-cell fit span (have %v)", tr.Spans)
	}
	for _, stat := range []string{"knn_candidates", "knn_pruned", "knn_unfiltered", "knn_sealed", "knn_cascade_pruned", "dtw_columns"} {
		if _, ok := tr.Stats[stat]; !ok {
			t.Errorf("trace missing stat %q (have %v)", stat, tr.Stats)
		}
	}

	// ?n limits and still returns newest first.
	resp, body = get(t, ts, "/debug/trace/t1?n=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?n=1 status = %d", resp.StatusCode)
	}
	traces = nil
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Horizons[0] != 2 {
		t.Fatalf("?n=1 = %+v", traces)
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	addPredictSensor(t, cl, "t2")
	if resp, _ := get(t, ts, "/debug/trace/"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty id = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/trace/t2?n=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/trace/nobody"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sensor = %d, want 404", resp.StatusCode)
	}
	// A registered sensor that has not predicted yet: empty list, not 404.
	rng := rand.New(rand.NewSource(8))
	if err := cl.AddSensor("idle", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts, "/debug/trace/idle")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("idle sensor = %d %q, want 200 []", resp.StatusCode, body)
	}
}

// TestTraceEndpointEscapedID is the regression test for sensor ids
// containing "/" or "%": sent percent-encoded, they must resolve via
// EscapedPath + PathUnescape instead of being split by the router's
// already-decoded path view.
func TestTraceEndpointEscapedID(t *testing.T) {
	ts, cl, sys := newTestServer(t)
	const id = "a/b%c" // worst case: both a path separator and a percent
	rng := rand.New(rand.NewSource(9))
	if err := cl.AddSensor(id, seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Predict(id, 1); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts, "/debug/trace/a%2Fb%25c")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("escaped id = %d, want 200: %s", resp.StatusCode, body)
	}
	var traces []obs.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].Sensor != id {
		t.Fatalf("traces = %+v, want one for %q", traces, id)
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts, _, sys := newTestServer(t)
	ring := sys.Events()
	if ring == nil {
		t.Fatal("system has no event ring")
	}
	ring.Record(obs.Event{Type: "failover", Severity: obs.SevError, Detail: "peer n2 down"})
	ring.Record(obs.Event{Type: "repl_resync", Sensor: "s1", TraceID: "abc"})

	resp, body := get(t, ts, "/debug/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var er EventsResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if er.LastSeq != 2 || len(er.Events) != 2 {
		t.Fatalf("events = %+v, want last_seq=2 with 2 events", er)
	}
	if er.Events[0].Type != "failover" || er.Events[0].Severity != obs.SevError {
		t.Fatalf("first event = %+v", er.Events[0])
	}
	if er.Events[1].Type != "repl_resync" || er.Events[1].TraceID != "abc" {
		t.Fatalf("second event = %+v", er.Events[1])
	}

	// Tail with since=: only events after the cursor come back.
	resp, body = get(t, ts, "/debug/events?since=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("since=1 status = %d", resp.StatusCode)
	}
	er = EventsResponse{}
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Events) != 1 || er.Events[0].Type != "repl_resync" {
		t.Fatalf("since=1 events = %+v", er.Events)
	}

	if resp, _ := get(t, ts, "/debug/events?since=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", resp.StatusCode)
	}

	// The healthz body reflects the ring's high-water mark.
	resp, body = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("healthz failed")
	}
	var hz HealthzResponse
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.EventsHighWater != 2 {
		t.Fatalf("healthz events_high_water = %d, want 2", hz.EventsHighWater)
	}
}

func TestRequestIDMiddleware(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, _ := get(t, ts, "/healthz")
	id1 := resp.Header.Get("X-Request-Id")
	if id1 == "" {
		t.Fatal("no X-Request-Id generated")
	}
	resp, _ = get(t, ts, "/healthz")
	if id2 := resp.Header.Get("X-Request-Id"); id2 == id1 {
		t.Fatalf("request IDs not unique: %q", id2)
	}
	// A client-supplied ID is echoed back.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-123")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "client-123" {
		t.Fatalf("echoed ID = %q", got)
	}
}

func TestAccessLogLine(t *testing.T) {
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv, err := NewWithOptions(sys, Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("healthz failed")
	}
	line := buf.String()
	for _, want := range []string{"msg=request", "method=GET", "path=/healthz", "status=200", "latency=", "id="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
}

func TestNormalizeRoute(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"/healthz", "/healthz"},
		{"/sensors", "/sensors"},
		{"/sensors/abc", "/sensors/{id}"},
		{"/sensors/abc/forecast", "/sensors/{id}/forecast"},
		{"/sensors/abc/observe", "/sensors/{id}/observe"},
		{"/debug/trace/xyz", "/debug/trace/{sensor}"},
		{"/metrics", "/metrics"},
	} {
		if got := normalizeRoute(tc.in); got != tc.want {
			t.Errorf("normalizeRoute(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}
