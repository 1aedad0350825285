package server

import (
	"errors"
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
)

// failingJournal is a SensorJournal whose appends fail while fail is set.
type failingJournal struct{ fail *atomic.Bool }

func (j failingJournal) AppendAddSensor(string, []float64) error { return j.err() }
func (j failingJournal) AppendRemoveSensor(string) error         { return j.err() }

func (j failingJournal) err() error {
	if j.fail.Load() {
		return errors.New("disk full")
	}
	return nil
}

// post sends body to path and returns the status and body, with no
// client retry.
func post(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestJournalFailureFailsTheWrite: a write whose journal append fails
// answers 503 and changes nothing — an observe, a bulk item (a failed
// entry in a 200), a readings sample, a sensor add and a sensor
// removal alike — and the observations count in journal_errors.
func TestJournalFailureFailsTheWrite(t *testing.T) {
	var fail atomic.Bool
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	j := failingJournal{fail: &fail}
	srv, err := NewWithOptions(sys, Options{
		Interval:      time.Minute,
		SensorJournal: j,
		Pipeline: ingest.Config{
			Journal: func(int, string, float64) error { return j.err() },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	hist := seasonal(rand.New(rand.NewSource(3)), 400)
	if err := sys.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	histLen := func() int {
		n, err := sys.HistoryLen("s")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	fail.Store(true)
	if code, body := post(t, http.MethodPost, ts.URL+"/sensors/s/observe", `{"value":51}`); code != http.StatusServiceUnavailable {
		t.Fatalf("observe with a failing journal: HTTP %d %s, want 503", code, body)
	}
	if n := histLen(); n != 400 {
		t.Fatalf("history = %d after a failed journal append, want 400: the value was applied", n)
	}
	if code, body := post(t, http.MethodPost, ts.URL+"/observations", `{"observations":[{"id":"s","value":52}]}`); code != http.StatusOK || !strings.Contains(body, `"failed"`) || !strings.Contains(body, `"accepted":0`) {
		t.Fatalf("bulk with a failing journal: HTTP %d %s, want 200 with the item failed", code, body)
	}
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	readings := `{"readings":[{"at":"` + base.Format(time.RFC3339) + `","value":50},{"at":"` + base.Add(130*time.Second).Format(time.RFC3339) + `","value":55}]}`
	if code, body := post(t, http.MethodPost, ts.URL+"/sensors/s/readings", readings); code != http.StatusServiceUnavailable {
		t.Fatalf("readings with a failing journal: HTTP %d %s, want 503", code, body)
	}
	if n := histLen(); n != 400 {
		t.Fatalf("history = %d after failed journal appends, want 400", n)
	}
	if st := srv.Pipeline().Stats().Totals; st.JournalErrors != 3 || st.Processed != 0 {
		t.Fatalf("totals = %+v, want 3 journal errors and nothing processed", st)
	}
	if code, body := post(t, http.MethodPost, ts.URL+"/sensors", `{"id":"t","history":[1,2,3]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("add with a failing journal: HTTP %d %s, want 503", code, body)
	}
	if sys.HasSensor("t") {
		t.Fatal("a sensor whose registration failed to journal was registered")
	}
	if code, body := post(t, http.MethodDelete, ts.URL+"/sensors/s", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("remove with a failing journal: HTTP %d %s, want 503", code, body)
	}
	if !sys.HasSensor("s") {
		t.Fatal("a sensor whose removal failed to journal was removed")
	}

	fail.Store(false)
	if code, body := post(t, http.MethodPost, ts.URL+"/sensors/s/observe", `{"value":51}`); code != http.StatusOK {
		t.Fatalf("observe once the journal recovers: HTTP %d %s", code, body)
	}
	if n := histLen(); n != 401 {
		t.Fatalf("history = %d, want 401", n)
	}
}

// TestReadYourWriteOverHTTP: an observe answers only once its value is
// applied, so the next forecast — with no Drain in between — is the
// forecast of a system fed the same values, bit for bit. The journal
// hook stalls the observe until released.
func TestReadYourWriteOverHTTP(t *testing.T) {
	cfg := testConfig()
	hist := seasonal(rand.New(rand.NewSource(8)), 400)
	twin, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twin.Close() })
	sys, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, s := range []*smiler.System{twin, sys} {
		if err := s.AddSensor("s", hist); err != nil {
			t.Fatal(err)
		}
	}
	stalled := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	srv, err := NewWithOptions(sys, Options{Pipeline: ingest.Config{
		Journal: func(int, string, float64) error {
			stalled <- struct{}{}
			<-release
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Prime the sensor's forecast memo, so a read that overtook the
	// observe would be served the answer from before it. The twin reads
	// too: the pending forecast is what the observe reweights by.
	if _, err := cl.Forecast("s", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Predict("s", 1); err != nil {
		t.Fatal(err)
	}

	const v = 57.25
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sensors/s/observe", "application/json", strings.NewReader(`{"value":57.25}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-stalled
	select {
	case code := <-done:
		t.Fatalf("observe answered %d while its journal append was stalled", code)
	case <-time.After(100 * time.Millisecond):
	}
	unblock()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("observe: HTTP %d, want 200", code)
	}
	got, err := cl.Forecast("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Observe("s", v); err != nil {
		t.Fatal(err)
	}
	want, err := twin.Predict("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
		t.Fatalf("forecast after the observe's 200 = %v±%v, a system fed the same values says %v±%v",
			got.Mean, got.Variance, want.Mean, want.Variance)
	}
}
