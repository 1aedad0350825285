package main

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"smiler"
	"smiler/internal/server"
)

// startRun boots the real server loop in a goroutine and waits for the
// listener, returning the bound address and the exit channel.
func startRun(t *testing.T, o options) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	o.onReady = func(addr string) { ready <- addr }
	go func() { done <- run(o) }()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	return "", nil
}

// stopRun SIGTERMs the process (after letting signal.Notify arm) and
// waits for the loop to exit cleanly.
func stopRun(t *testing.T, done chan error) {
	t.Helper()
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

// TestRunWALLifecycle drives WAL durability through the real server
// loop across two process lifetimes: the first run journals every
// accepted write with no checkpoint configured, so on restart the WAL
// is the only durable copy; the second run must recover the full
// state from replay alone, serve /readyz 200, and fold everything
// into a post-recovery checkpoint. The first run's writes include a
// sensor's whole lifecycle (registered, observed, removed, registered
// again with another history), and the second run has more shard
// locks than the WAL directory pins logs: the log manager places every
// record itself, so the two counts need not agree.
func TestRunWALLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("signal-driven lifecycle test")
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "state.ckpt")
	base := options{
		addr:      "127.0.0.1:0",
		predictor: "ar",
		shards:    2,
		logLevel:  "error",
		walDir:    walDir,
		fsync:     "always",
		fallback:  "none",
	}
	// twin is fed the same writes in process: the recovered histories
	// must equal its own bit for bit.
	twin, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	both := func(what string, errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	series := func(n int, phase float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/24+phase)
		}
		return out
	}

	// First lifetime: WAL only, no checkpoint.
	addr, done := startRun(t, base)
	cl, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist, first, second := series(300, 0), series(300, 1), series(320, 2)
	both("add s", cl.AddSensor("s", hist), twin.AddSensor("s", hist))
	for i := 0; i < 7; i++ {
		both("observe s", cl.Observe("s", hist[i]), twin.Observe("s", hist[i]))
	}
	both("add t", cl.AddSensor("t", first), twin.AddSensor("t", first))
	both("observe t", cl.Observe("t", 4.5), twin.Observe("t", 4.5))
	both("remove t", cl.RemoveSensor("t"), twin.RemoveSensor("t"))
	both("add t again", cl.AddSensor("t", second), twin.AddSensor("t", second))
	both("observe t", cl.Observe("t", 5.5), twin.Observe("t", 5.5))
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 on a recovered server", resp.StatusCode)
	}
	stopRun(t, done)

	// Second lifetime: same WAL dir (pinned at 2 logs) plus a
	// checkpoint path, under 3 shard locks. Startup must rebuild both
	// sensors purely from WAL replay and then cover them with a
	// post-recovery checkpoint.
	withCkpt := base
	withCkpt.checkpoint = ckpt
	withCkpt.shards = 3
	addr, done = startRun(t, withCkpt)
	cl, err = server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cl.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []string{"s", "t"}) {
		t.Fatalf("recovered sensors = %v, want [s t]", ids)
	}
	if _, err := cl.Forecast("s", 1); err != nil {
		t.Fatalf("forecast after WAL recovery: %v", err)
	}
	both("observe t", cl.Observe("t", 6.5), twin.Observe("t", 6.5))
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("post-recovery checkpoint not written: %v", err)
	}
	stopRun(t, done)
	if meta, err := os.ReadFile(filepath.Join(walDir, "wal.meta")); err != nil || strings.TrimSpace(string(meta)) != "2" {
		t.Fatalf("wal.meta = %q (%v), want the pinned 2", meta, err)
	}

	// The final checkpoint must hold every journaled write: both
	// histories equal the twin's.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := smiler.Load(f, smiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, id := range []string{"s", "t"} {
		got, err := restored.History(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: restored history (%d points) differs from the twin's (%d)", id, len(got), len(want))
		}
	}
}
