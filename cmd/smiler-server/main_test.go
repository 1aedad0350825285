package main

import (
	"flag"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/server"
)

// quiet discards all log output in tests.
var quiet = slog.New(slog.DiscardHandler)

func smallCfg() smiler.Config {
	cfg := smiler.DefaultConfig()
	cfg.Rho = 3
	cfg.Omega = 8
	cfg.ELV = []int{16, 24}
	cfg.EKV = []int{4}
	cfg.Predictor = smiler.PredictorAR
	return cfg
}

func TestLoadOrNewFreshAndMissingFile(t *testing.T) {
	sys, _, err := loadOrNew(smallCfg(), "", quiet)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys, _, err = loadOrNew(smallCfg(), filepath.Join(t.TempDir(), "missing.ckpt"), quiet)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
}

func TestSaveAndReloadCheckpoint(t *testing.T) {
	cfg := smallCfg()
	sys, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 300)
	for i := range hist {
		hist[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/24)
	}
	if err := sys.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := saveCheckpoint(sys, path, nil); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file should be renamed away")
	}

	restored, _, err := loadOrNew(cfg, path, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if ids := restored.Sensors(); len(ids) != 1 || ids[0] != "s" {
		t.Fatalf("restored sensors = %v", ids)
	}
	if _, err := restored.Predict("s", 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOrNewCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadOrNew(smallCfg(), path, quiet); err == nil {
		t.Fatal("corrupt checkpoint should fail")
	}
}

// TestFlagSurface pins the server's flags. A knob earns its place with
// a measured ablation or an operational need: a change that adds one
// edits this list, and the review asks which workload needs it. The
// cluster's flags are the static ring's: membership, replicas, probes,
// staleness and the secret.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("smiler-server", flag.ContinueOnError)
	registerFlags(fs, &options{})
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"addr", "checkpoint", "cluster-peers", "cluster-secret", "degraded-fallback",
		"fsync", "interval", "log-level", "max-history", "max-hot-sensors",
		"max-staleness", "node-id", "pprof", "predict-deadline", "predictor",
		"probe-failures", "probe-interval", "replicas", "shards", "spill-dir",
		"wal-dir",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("smiler-server flags (%d):\n%v\nwant (%d):\n%v", len(got), got, len(want), want)
	}
}

func TestRunRejectsBadPredictor(t *testing.T) {
	if err := run(options{addr: ":0", predictor: "nope"}); err == nil {
		t.Fatal("unknown predictor should fail")
	}
}

// TestRunRejectsBadBackpressure: the ingest path has one full-queue
// policy, so a command line that still picks one, or sizes the queue
// or the batch, fails at parse time instead of being silently ignored.
func TestRunRejectsBadBackpressure(t *testing.T) {
	for _, args := range [][]string{
		{"-backpressure", "error"},
		{"-queue", "1024"},
		{"-batch", "64"},
	} {
		fs := flag.NewFlagSet("smiler-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &options{})
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}

// TestRunRejectsMembershipFlags: the ring is fixed for a cluster's
// life, so the flags that joined, drained or reshaped a running
// cluster are gone, and a command line that still sets one fails at
// parse time.
func TestRunRejectsMembershipFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster-join", "http://h1:8080"},
		{"-rebalance-batch", "16"},
		{"-rebalance-interval", "200ms"},
		{"-drain-on-term"},
		{"-drain-timeout", "2m"},
	} {
		fs := flag.NewFlagSet("smiler-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &options{})
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}

// TestMetricsSmoke boots the real server loop with -pprof, a WAL,
// tiering and a degraded fallback, drives one prediction, and asserts
// that /metrics serves the required metric families and exactly the
// families docs/OBSERVABILITY.md documents, /debug/trace/{sensor}
// serves spans, and the pprof index responds.
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("signal-driven lifecycle test")
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			addr:          "127.0.0.1:0",
			predictor:     "ar",
			shards:        2,
			logLevel:      "error",
			pprof:         true,
			walDir:        filepath.Join(t.TempDir(), "wal"),
			fsync:         "always",
			maxHotSensors: 8,
			fallback:      "ar1",
			onReady:       func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	cl, err := server.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 300)
	for i := range hist {
		hist[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/24)
	}
	if err := cl.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Forecast("s", 1); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`smiler_predictions_total{quality="exact"} 1`,
		"# TYPE smiler_predict_phase_seconds histogram",
		"smiler_knn_candidates_total",
		`smiler_ingest_processed_total{shard=`,
		"smiler_forecast_cache_misses_total",
		"smiler_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	emitted := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "smiler_") {
			emitted[f[2]] = true
		}
	}
	documented := documentedFamilies(t)
	for name := range emitted {
		if !documented[name] {
			t.Errorf("/metrics family %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which the node does not emit", name)
		}
	}
	if code, body = get("/debug/trace/s"); code != http.StatusOK || !strings.Contains(body, `"name":"search"`) {
		t.Fatalf("/debug/trace/s = %d: %s", code, body)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d (pprof flag not wired)", code)
	}

	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// documentedFamilies returns the metric families named in the first
// column of docs/OBSERVABILITY.md's tables. Cluster families live in
// docs/CLUSTER.md and a single node does not emit them.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `(smiler_[a-z0-9_]+)")
	out := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

// TestRunLifecycle drives the real server loop end to end: start,
// register a sensor and stream observations over HTTP, then SIGTERM —
// and assert that the pipeline was drained before the checkpoint was
// written, i.e. the restored system contains every accepted
// observation.
func TestRunLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("signal-driven lifecycle test")
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			addr:       "127.0.0.1:0",
			predictor:  "ar",
			checkpoint: path,
			interval:   time.Minute,
			shards:     2,
			onReady:    func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}

	cl, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	const histLen, observed, bulked = 300, 7, 5
	hist := make([]float64, histLen)
	for i := range hist {
		hist[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/24)
	}
	if err := cl.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < observed; i++ {
		if err := cl.Observe("s", hist[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Bulk ingest endpoint, end to end through the real server loop.
	bulk := make([]ingest.Observation, bulked)
	for i := range bulk {
		bulk[i] = ingest.Observation{Sensor: "s", Value: hist[observed+i]}
	}
	res, err := cl.ObserveMany(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != bulked || res.Dropped != 0 || len(res.Failed) != 0 {
		t.Fatalf("bulk result = %+v", res)
	}
	if st, err := cl.PipelineStats(); err != nil || st.Shards != 2 {
		t.Fatalf("pipeline stats = %+v, err %v", st, err)
	}

	// Give signal.Notify time to arm before the termination signal
	// arrives (otherwise it would kill the test binary itself).
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// The checkpoint must contain the full drained stream.
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	defer f.Close()
	restored, err := smiler.Load(f, smiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	n, err := restored.HistoryLen("s")
	if err != nil {
		t.Fatal(err)
	}
	if n != histLen+observed+bulked {
		t.Fatalf("restored history %d points, want %d (pipeline not drained before checkpoint)", n, histLen+observed+bulked)
	}
}
