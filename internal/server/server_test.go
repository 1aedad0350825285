package server

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/timeseries"
)

func testConfig() smiler.Config {
	cfg := smiler.DefaultConfig()
	cfg.Rho = 3
	cfg.Omega = 8
	cfg.ELV = []int{16, 24, 40}
	cfg.EKV = []int{4, 8}
	cfg.Predictor = smiler.PredictorAR
	return cfg
}

func seasonal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()*0.5
	}
	return out
}

func newTestServer(t *testing.T) (*httptest.Server, *Client, *smiler.System) {
	t.Helper()
	sys, err := smiler.New(testConfig())
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
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, cl, sys
}

func TestNewRejectsNilSystem(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil system should fail")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("://bad", nil); err == nil {
		t.Fatal("invalid URL should fail")
	}
	if _, err := NewClient("/relative", nil); err == nil {
		t.Fatal("relative URL should fail")
	}
	if _, err := NewClient("http://localhost:1", nil); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, cl, _ := newTestServer(t)
	if err := cl.Healthz(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sensors != 0 || st.DeviceTotal <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSensorLifecycleOverHTTP(t *testing.T) {
	_, cl, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(1))
	hist := seasonal(rng, 400)

	if err := cl.AddSensor("s1", hist[:380]); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor("s1", hist[:380]); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate should 409, got %v", err)
	}
	ids, err := cl.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("sensors = %v", ids)
	}

	f, err := cl.Forecast("s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "s1" || f.Horizon != 1 || f.Variance <= 0 || f.Lo >= f.Hi {
		t.Fatalf("forecast = %+v", f)
	}
	if f.Mean < 30 || f.Mean > 70 {
		t.Fatalf("forecast mean %v not in raw units", f.Mean)
	}

	if err := cl.Observe("s1", hist[380]); err != nil {
		t.Fatal(err)
	}
	if err := cl.ObserveBatch("s1", hist[381:390]); err != nil {
		t.Fatal(err)
	}

	cells, err := cl.Ensemble("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 { // 2 EKV × 3 ELV
		t.Fatalf("got %d cells", len(cells))
	}
	var sum float64
	for i, c := range cells {
		sum += c.Weight
		if i > 0 && less(cells[i], cells[i-1]) {
			t.Fatal("cells not sorted")
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum %v", sum)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sensors != 1 || st.DeviceUsed <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	if err := cl.RemoveSensor("s1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveSensor("s1"); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	ts, cl, _ := newTestServer(t)

	if _, err := cl.Forecast("nope", 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown sensor should 404, got %v", err)
	}
	if err := cl.Observe("nope", 1); err == nil {
		t.Fatal("unknown sensor observe should fail")
	}
	if err := cl.AddSensor("", nil); err == nil {
		t.Fatal("empty id should fail")
	}
	if err := cl.AddSensor("short", []float64{1, 2, 3}); err == nil {
		t.Fatal("short history should fail")
	}

	// Raw HTTP error paths the typed client can't produce.
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{http.MethodPut, "/healthz", "", http.StatusMethodNotAllowed},
		{http.MethodPut, "/stats", "", http.StatusMethodNotAllowed},
		{http.MethodPut, "/sensors", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/sensors/", "", http.StatusBadRequest},
		{http.MethodPatch, "/sensors/x", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/sensors", "{bad json", http.StatusBadRequest},
		{http.MethodPost, "/sensors", `{"id":"x","unknown":1}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}

	// Bad query parameters.
	rng := rand.New(rand.NewSource(2))
	if err := cl.AddSensor("q", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"h=0", "h=abc", "z=-1", "z=abc"} {
		resp, err := ts.Client().Get(ts.URL + "/sensors/q/forecast?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("forecast?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// Observe with no values.
	resp, err := ts.Client().Post(ts.URL+"/sensors/q/observe", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty observe: status %d, want 400", resp.StatusCode)
	}
}

func TestConcurrentClientsOneSensorEach(t *testing.T) {
	_, cl, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	histories := make([][]float64, 4)
	for i := range histories {
		histories[i] = seasonal(rand.New(rand.NewSource(rng.Int63())), 420)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := range histories {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			if err := cl.AddSensor(id, histories[i][:400]); err != nil {
				errs <- err
				return
			}
			for t := 0; t < 10; t++ {
				if _, err := cl.Forecast(id, 1); err != nil {
					errs <- err
					return
				}
				if err := cl.Observe(id, histories[i][400+t]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ids, err := cl.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("got %d sensors", len(ids))
	}
}

func TestForecastMultiEndpoint(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(9))
	if err := cl.AddSensor("m", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	hs := []int{1, 3, 6}
	fs, err := cl.Forecasts("m", hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d forecasts", len(fs))
	}
	for i, f := range fs {
		if f.Horizon != hs[i] || f.Variance <= 0 || f.Lo >= f.Hi {
			t.Fatalf("forecast %d malformed: %+v", i, f)
		}
	}
	// Must agree with the single-horizon endpoint.
	single, err := cl.Forecast("m", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.Mean-fs[1].Mean) > 1e-9 {
		t.Fatalf("multi %v vs single %v", fs[1].Mean, single.Mean)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/sensors/m/" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	// One handler behind both routes: /forecast is element 0 of the
	// one-horizon /forecasts, byte for byte.
	_, one := get("forecast?h=3&z=1.5")
	_, many := get("forecasts?hs=3&z=1.5")
	if want := "[" + strings.TrimSuffix(one, "\n") + "]\n"; many != want {
		t.Fatalf("forecasts?hs=3 = %q, want forecast?h=3 wrapped: %q", many, want)
	}
	// Error paths: a bad horizon or z is the same 400 on both routes.
	for _, q := range []string{"", "hs=0", "hs=a", "hs=1&z=bad"} {
		status, body := get("forecasts?" + q)
		if status != http.StatusBadRequest {
			t.Fatalf("forecasts?%s: status %d, want 400", q, status)
		}
		if q == "" {
			continue // only /forecasts has a required parameter
		}
		single := strings.Replace(q, "hs=", "h=", 1)
		if s1, b1 := get("forecast?" + single); s1 != status || b1 != body {
			t.Fatalf("forecast?%s answered %d %q, forecasts?%s %d %q", single, s1, b1, q, status, body)
		}
	}
	if _, err := cl.Forecasts("nope", hs); err == nil {
		t.Fatal("unknown sensor should fail")
	}
}

func TestReadingsEndpoint(t *testing.T) {
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := NewWithOptions(sys, Options{Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	if err := cl.AddSensor("r", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	// Irregular readings spanning several grid minutes.
	readings := []Reading{
		{At: base, Value: 50},
		{At: base.Add(40 * time.Second), Value: 52},
		{At: base.Add(130 * time.Second), Value: 55},
		{At: base.Add(200 * time.Second), Value: 53},
	}
	if err := cl.SendReadings("r", readings); err != nil {
		t.Fatal(err)
	}
	// The grid samples must have advanced the sensor's stream: the
	// forecast still works and stays near the fed values.
	f, err := cl.Forecast("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Variance <= 0 {
		t.Fatalf("forecast %+v malformed", f)
	}
	// Stale reading rejected.
	if err := cl.SendReadings("r", []Reading{{At: base.Add(-time.Hour), Value: 1}}); err == nil {
		t.Fatal("stale reading should fail")
	}
	// Empty batch rejected.
	if err := cl.SendReadings("r", nil); err == nil {
		t.Fatal("empty batch should fail")
	}
}

// TestConcurrentReadingsOneSensor posts readings batches for one
// sensor from several clients at once. The readings lie on a linear
// ramp, so every grid sample equals the ramp at its instant however
// the requests interleave: the samples that reach the history must
// climb one grid step at a time. A request whose reading another
// request already finalized past is refused as stale; nothing else may
// fail.
func TestConcurrentReadingsOneSensor(t *testing.T) {
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := NewWithOptions(sys, Options{Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	const histLen = 400
	if err := cl.AddSensor("r", seasonal(rand.New(rand.NewSource(13)), histLen)); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	// ramp rises one unit per grid minute.
	ramp := func(at time.Time) float64 { return 1000 + at.Sub(base).Minutes() }

	const clients, requests, perRequest = 8, 25, 4
	var next atomic.Int64 // reading k lies at base + 37k seconds
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				batch := make([]Reading, perRequest)
				for i := range batch {
					at := base.Add(time.Duration(next.Add(1)) * 37 * time.Second)
					batch[i] = Reading{At: at, Value: ramp(at)}
				}
				if err := cl.SendReadings("r", batch); err != nil && !strings.Contains(err.Error(), timeseries.ErrStale.Error()) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	hist, err := sys.History("r")
	if err != nil {
		t.Fatal(err)
	}
	tail := hist[histLen:]
	if len(tail) < 2 {
		t.Fatalf("only %d grid samples reached the history", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if !(tail[i] > tail[i-1]) || math.Abs(tail[i]-tail[i-1]-1) > 1e-9 {
			t.Fatalf("grid samples %d,%d = %v, %v: out of grid order", i-1, i, tail[i-1], tail[i])
		}
	}
}

func TestReadingsDisabledWithoutInterval(t *testing.T) {
	_, cl, _ := newTestServer(t) // plain New: no interval
	rng := rand.New(rand.NewSource(12))
	if err := cl.AddSensor("x", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	err := cl.SendReadings("x", []Reading{{At: time.Now(), Value: 1}})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("expected 501, got %v", err)
	}
}

func TestBulkObservationsEndpoint(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(21))
	if err := cl.AddSensor("a", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor("b", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.ObserveMany([]ingest.Observation{
		{Sensor: "a", Value: 50},
		{Sensor: "b", Value: 51},
		{Sensor: "ghost", Value: 52},
		{Sensor: "a", Value: 53},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Dropped != 0 || len(res.Failed) != 1 {
		t.Fatalf("bulk result = %+v", res)
	}
	if res.Failed[0].Index != 2 || res.Failed[0].ID != "ghost" {
		t.Fatalf("failure = %+v", res.Failed[0])
	}

	// Error paths: wrong method, empty batch, bad JSON.
	for _, tc := range []struct {
		method, body string
		wantStatus   int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPost, `{"observations":[]}`, http.StatusBadRequest},
		{http.MethodPost, `{bad`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+"/observations", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s /observations %q: status %d, want %d", tc.method, tc.body, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestPipelineStatsEndpoint(t *testing.T) {
	ts, cl, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(22))
	if err := cl.AddSensor("p", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if err := cl.ObserveBatch("p", []float64{50, 51, 52}); err != nil {
		t.Fatal(err)
	}
	// Identical forecasts: the second is served the first's answer.
	if _, err := cl.Forecast("p", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Forecast("p", 1); err != nil {
		t.Fatal(err)
	}
	st, err := cl.PipelineStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards < 1 || len(st.PerShard) != st.Shards {
		t.Fatalf("pipeline stats = %+v", st)
	}
	if st.Totals.Enqueued != 3 {
		t.Fatalf("enqueued %d, want 3", st.Totals.Enqueued)
	}
	if st.Coalesce.CacheHits < 1 || st.Coalesce.Misses < 1 {
		t.Fatalf("coalesce stats = %+v", st.Coalesce)
	}
	resp, err := ts.Client().Get(ts.URL + "/pipeline/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{`"queue_size"`, `"max_batch"`, `"backpressure"`, `"batches"`, `"avg_batch"`,
		`"coalesced_waits"`, `"invalidations"`, `"cache_size"`} {
		if strings.Contains(string(raw), gone) {
			t.Fatalf("/pipeline/stats still reports %s: %s", gone, raw)
		}
	}
	resp, err = ts.Client().Post(ts.URL+"/pipeline/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /pipeline/stats: status %d, want 405", resp.StatusCode)
	}
}

// TestServerCloseDrains: observations accepted before Close must be
// applied to the system by the time Close returns (this is what the
// SIGTERM path relies on before checkpointing).
func TestServerCloseDrains(t *testing.T) {
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := NewWithOptions(sys, Options{Pipeline: ingest.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	if err := cl.AddSensor("d", seasonal(rng, 400)); err != nil {
		t.Fatal(err)
	}
	const n = 25
	if err := cl.ObserveBatch("d", seasonal(rng, n)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Pipeline().Stats()
	if st.Totals.Processed != n || st.Totals.QueueDepth != 0 || st.Totals.Errors != 0 {
		t.Fatalf("pipeline not drained: %+v", st.Totals)
	}
	// A post-close observe surfaces as 503 (shutting down).
	err = cl.Observe("d", 1)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("post-close observe: %v, want 503", err)
	}
}

func TestNewWithIntervalValidation(t *testing.T) {
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := NewWithOptions(sys, Options{Interval: -time.Second}); err == nil {
		t.Fatal("negative interval should fail")
	}
}

// A horizon read twice in one step — /forecast?h=1, then
// /forecasts?hs=1,3 — is computed once: the second read is served the
// first's h=1 answer and computes only h=3. So the ensemble after one
// observation, and the next step's forecasts, are byte for byte those
// of a server that only served /forecasts?hs=1,3. GP cells, whose fits
// warm-start from their previous optimum, so a second fit would show.
func TestRepeatedForecastReweightsOnce(t *testing.T) {
	hist := seasonal(rand.New(rand.NewSource(24)), 401)
	afterStep := func(paths ...string) (ensemble, next string) {
		t.Helper()
		cfg := testConfig()
		cfg.Predictor = smiler.PredictorGP
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
		cl, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.AddSensor("e", hist[:400]); err != nil {
			t.Fatal(err)
		}
		get := func(path string) string {
			t.Helper()
			resp, err := ts.Client().Get(ts.URL + "/sensors/e/" + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
			}
			return string(body)
		}
		for _, p := range paths {
			get(p)
		}
		if err := cl.Observe("e", hist[400]); err != nil {
			t.Fatal(err)
		}
		if err := srv.Pipeline().Drain(); err != nil {
			t.Fatal(err)
		}
		return get("ensemble"), get("forecasts?hs=1,3")
	}
	wantEns, wantNext := afterStep("forecasts?hs=1,3")
	gotEns, gotNext := afterStep("forecast?h=1", "forecasts?hs=1,3")
	if gotEns != wantEns {
		t.Fatalf("ensemble after a repeated h=1 read:\n%s\nafter one read:\n%s", gotEns, wantEns)
	}
	if gotNext != wantNext {
		t.Fatalf("next step's forecasts after a repeated h=1 read:\n%s\nafter one read:\n%s", gotNext, wantNext)
	}
}
