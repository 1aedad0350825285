package server

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/wal"
)

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
	srv, err := NewWithOptions(sys, Options{
		Interval: time.Minute,
		Pipeline: ingest.Config{
			Journal: func(wal.Record) error {
				if fail.Load() {
					return errors.New("disk full")
				}
				return nil
			},
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
		Journal: func(wal.Record) error {
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

// holdingJournal records every journaled record and every applied one
// (the post-apply hook), and holds the first removal's journal call
// until release is called: before its append when holdBefore is set,
// after it otherwise.
type holdingJournal struct {
	holdBefore bool
	holding    atomic.Bool
	held       chan struct{}
	released   chan struct{}
	release    func()

	mu                sync.Mutex
	journaled, hooked []string
}

func newHoldingJournal(t *testing.T, holdBefore bool) *holdingJournal {
	j := &holdingJournal{holdBefore: holdBefore, held: make(chan struct{}), released: make(chan struct{})}
	var once sync.Once
	j.release = func() { once.Do(func() { close(j.released) }) }
	t.Cleanup(j.release)
	return j
}

func (j *holdingJournal) hold() {
	close(j.held)
	<-j.released
}

func (j *holdingJournal) add(to *[]string, r wal.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	*to = append(*to, r.Type.String()+" "+r.Sensor)
}

func (j *holdingJournal) config() ingest.Config {
	return ingest.Config{
		Journal: func(r wal.Record) error {
			hold := r.Type == wal.RecRemoveSensor && j.holding.CompareAndSwap(false, true)
			if hold && j.holdBefore {
				j.hold()
			}
			j.add(&j.journaled, r)
			if hold && !j.holdBefore {
				j.hold()
			}
			return nil
		},
		OnApplied: func(r wal.Record) { j.add(&j.hooked, r) },
	}
}

func (j *holdingJournal) records() (journaled, hooked []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Clone(j.journaled), slices.Clone(j.hooked)
}

// contractServer serves one registered sensor "s" with journal j.
func contractServer(t *testing.T, j *holdingJournal) *httptest.Server {
	t.Helper()
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.AddSensor("s", seasonal(rand.New(rand.NewSource(5)), 400)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys, Options{Pipeline: j.config()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// async sends one request on its own goroutine and delivers its status.
func async(t *testing.T, method, url, body string) <-chan int {
	done := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// TestConcurrentRemovalsJournalOnce: of two concurrent DELETEs of one
// sensor, the one held inside its removal append is the one that
// removes it (200), and the other finds the sensor gone (404) without
// journaling a second removal.
func TestConcurrentRemovalsJournalOnce(t *testing.T) {
	j := newHoldingJournal(t, true)
	ts := contractServer(t, j)
	first := async(t, http.MethodDelete, ts.URL+"/sensors/s", "")
	<-j.held
	second := async(t, http.MethodDelete, ts.URL+"/sensors/s", "")
	select {
	case code := <-second:
		j.release()
		t.Fatalf("a second DELETE answered %d while the first was inside its journal append", code)
	case <-time.After(100 * time.Millisecond):
	}
	j.release()
	if a, b := <-first, <-second; a != http.StatusOK || b != http.StatusNotFound {
		t.Fatalf("held DELETE answered %d, the other %d; want 200 and 404", a, b)
	}
	journaled, hooked := j.records()
	if want := []string{"remove-sensor s"}; !slices.Equal(journaled, want) || !slices.Equal(hooked, want) {
		t.Fatalf("journal %v, applied %v; want %v for both", journaled, hooked, want)
	}
}

// TestObserveBehindRemovalIsRefused: an observe that arrives while a
// DELETE of its sensor sits between its journal append and its apply
// waits for the shard lock and then finds the sensor gone (404), so the
// journal holds the removal alone, in the order the system applied it.
func TestObserveBehindRemovalIsRefused(t *testing.T) {
	j := newHoldingJournal(t, false)
	ts := contractServer(t, j)
	del := async(t, http.MethodDelete, ts.URL+"/sensors/s", "")
	<-j.held
	obs := async(t, http.MethodPost, ts.URL+"/sensors/s/observe", `{"value":51}`)
	select {
	case code := <-obs:
		j.release()
		t.Fatalf("an observe answered %d while a removal of its sensor was journaled but not applied", code)
	case <-time.After(100 * time.Millisecond):
	}
	j.release()
	if d, o := <-del, <-obs; d != http.StatusOK || o != http.StatusNotFound {
		t.Fatalf("DELETE answered %d, the observe behind it %d; want 200 and 404", d, o)
	}
	journaled, hooked := j.records()
	if want := []string{"remove-sensor s"}; !slices.Equal(journaled, want) || !slices.Equal(hooked, want) {
		t.Fatalf("journal %v, applied %v; want %v for both", journaled, hooked, want)
	}
}
