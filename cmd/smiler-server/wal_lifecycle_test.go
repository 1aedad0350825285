package main

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
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
// accepted event with no checkpoint configured, so on restart the WAL
// is the only durable copy; the second run must recover the full
// state from replay alone, serve /readyz 200, and fold everything
// into a post-recovery checkpoint.
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

	// First lifetime: WAL only, no checkpoint.
	addr, done := startRun(t, base)
	cl, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	const histLen, observed = 300, 7
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
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 on a recovered server", resp.StatusCode)
	}
	stopRun(t, done)

	// Second lifetime: same WAL dir plus a checkpoint path. Startup
	// must rebuild the sensor purely from WAL replay and then cover it
	// with a post-recovery checkpoint.
	withCkpt := base
	withCkpt.checkpoint = ckpt
	addr, done = startRun(t, withCkpt)
	cl, err = server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cl.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s" {
		t.Fatalf("recovered sensors = %v, want [s]", ids)
	}
	if _, err := cl.Forecast("s", 1); err != nil {
		t.Fatalf("forecast after WAL recovery: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("post-recovery checkpoint not written: %v", err)
	}
	stopRun(t, done)

	// The final checkpoint must hold the initial history plus every
	// journaled observation.
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
	n, err := restored.HistoryLen("s")
	if err != nil {
		t.Fatal(err)
	}
	if n != histLen+observed {
		t.Fatalf("restored history %d points, want %d (WAL lost observations)", n, histLen+observed)
	}
}
