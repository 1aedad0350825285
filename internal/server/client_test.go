package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler fails the first failures requests with the given status
// and then serves a fixed JSON body.
type flakyHandler struct {
	failures int32
	status   int
	calls    atomic.Int32
	body     any
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.calls.Add(1)
	if n <= atomic.LoadInt32(&f.failures) {
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(errorResponse{Error: "transient"})
		return
	}
	json.NewEncoder(w).Encode(f.body)
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestClientRetriesFlakyGET(t *testing.T) {
	h := &flakyHandler{failures: 2, status: http.StatusServiceUnavailable, body: []string{"a", "b"}}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(3)

	ids, err := c.Sensors()
	if err != nil {
		t.Fatalf("GET should have recovered after retries, got %v", err)
	}
	if len(ids) != 2 || ids[0] != "a" {
		t.Fatalf("ids = %v, want [a b]", ids)
	}
	if got := h.calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestClientConcurrentRetries hammers one shared Client from many
// goroutines against a server that fails every other request, so most
// GETs go through the backoff path concurrently. A shared Client must
// be safe for concurrent use; the jitter source in particular must not
// race — run under -race.
func TestClientConcurrentRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errorResponse{Error: "transient"})
			return
		}
		json.NewEncoder(w).Encode([]string{"a"})
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(4)

	// With requests from 8 goroutines interleaving on the shared
	// counter, one GET can draw the failing parity on all its attempts
	// and exhaust its budget — that outcome is fine (it still walked the
	// backoff path); any other error is not.
	const goroutines, gets = 8, 20
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < gets; i++ {
				if _, err := c.Sensors(); err != nil && !strings.Contains(err.Error(), "transient") {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent GET failed with a non-transient error: %v", err)
		}
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusInternalServerError, body: nil}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(3)

	if _, err := c.Sensors(); err == nil {
		t.Fatal("want error after retry budget exhausted")
	} else if !strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("err = %v, want the final HTTP 500", err)
	}
	if got := h.calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want exactly the 3-attempt budget", got)
	}
}

func TestClientNoRetryOn4xx(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusNotFound, body: nil}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(5)

	if _, err := c.Sensors(); err == nil {
		t.Fatal("want error on 404")
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests; 4xx must not be retried", got)
	}
}

// TestClientRetryOnPOST: mutations are retried under the backoff
// budget, all attempts of one logical request share one idempotency
// key (so the server can dedupe), distinct requests get distinct keys,
// and the exhausted error reports the attempt count.
func TestClientRetryOnPOST(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	base := &flakyHandler{failures: 100, status: http.StatusServiceUnavailable, body: nil}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(IdempotencyKeyHeader))
		mu.Unlock()
		base.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(5)

	err = c.Observe("s", 1.0)
	if err == nil {
		t.Fatal("want error on failing POST")
	}
	if !strings.Contains(err.Error(), "after 5 attempts") {
		t.Fatalf("err = %v, want the attempt count surfaced", err)
	}
	if got := base.calls.Load(); got != 5 {
		t.Fatalf("server saw %d requests, want the full 5-attempt budget", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, k := range keys {
		if k == "" {
			t.Fatalf("attempt %d carried no idempotency key", i)
		}
		if k != keys[0] {
			t.Fatalf("attempt %d used key %q, want %q (one key per logical request)", i, k, keys[0])
		}
	}
	// A fresh logical request must mint a fresh key.
	keys = keys[:0]
	mu.Unlock()
	_ = c.Observe("s", 2.0)
	mu.Lock()
	if len(keys) == 0 || keys[0] == "" {
		t.Fatal("second request carried no idempotency key")
	}
}

func TestClientRetryTransportError(t *testing.T) {
	// A server that is started and immediately closed yields a
	// connection-refused transport error on every attempt.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c, err := NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = fastRetry(3)

	start := time.Now()
	if _, err := c.Sensors(); err == nil {
		t.Fatal("want transport error")
	}
	// Two backoff sleeps (1ms, 2ms) must have happened; generous bound.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retries took %v, backoff not bounded", elapsed)
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	h := &flakyHandler{failures: 100, status: http.StatusServiceUnavailable, body: nil}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = RetryPolicy{MaxAttempts: 50, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.doCtx(ctx, http.MethodGet, "/sensors", nil, nil)
	if err == nil {
		t.Fatal("want error under cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled retry loop ran %v; must stop promptly", elapsed)
	}
	if got := h.calls.Load(); got >= 50 {
		t.Fatalf("server saw %d requests; cancellation must cut the budget short", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// An HTTP-date ~2s out parses to roughly that distance.
	in := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(in); got <= 0 || got > 3*time.Second {
		t.Errorf("parseRetryAfter(%q) = %v, want ~2s", in, got)
	}
}

// TestClientHonorsRetryAfter: a 503 carrying Retry-After must delay
// the retry until the server said it would be ready, overriding the
// (here, millisecond-scale) exponential schedule.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errorResponse{Error: "draining"})
			return
		}
		json.NewEncoder(w).Encode([]string{"a"})
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Second}

	start := time.Now()
	if _, err := c.Sensors(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry after %v; the 1s Retry-After hint was not honored", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}

// TestClientRetryAfterCappedAtMaxDelay: a hostile or confused hint
// cannot stall the client past its own MaxDelay.
func TestClientRetryAfterCappedAtMaxDelay(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode([]string{"a"})
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}

	start := time.Now()
	if _, err := c.Sensors(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry stalled %v; hint must be capped at MaxDelay", elapsed)
	}
}

// TestClientErrorExposesHTTPStatus: callers branch on status via
// errors.As instead of string matching.
func TestClientErrorExposesHTTPStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(errorResponse{Error: "sensor exists"})
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = c.AddSensor("s", nil)
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err %T %v; want *HTTPError in the chain", err, err)
	}
	if he.Status != http.StatusConflict || he.Msg != "sensor exists" {
		t.Fatalf("HTTPError = %+v", he)
	}
	if !strings.Contains(he.Error(), "HTTP 409") {
		t.Fatalf("Error() = %q", he.Error())
	}
}

// TestClientOwnerEviction: the per-sensor owner-URL cache drops a hint
// only when the hinted node looks gone or broken — transport errors
// and 5xx. 4xx responses are authoritative answers about the request,
// not the routing, so the hint must survive them; and an error
// response that itself names an owner re-learns instead of forgetting.
// MaxAttempts=1 everywhere: no retries, no sleeps, no timing.
func TestClientOwnerEviction(t *testing.T) {
	newPair := func(t *testing.T, ownerStatus int, ownerHeader string) (*Client, *httptest.Server, *atomic.Int32, *atomic.Int32) {
		t.Helper()
		var primaryCalls, ownerCalls atomic.Int32
		primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			primaryCalls.Add(1)
			json.NewEncoder(w).Encode(ForecastResponse{})
		}))
		t.Cleanup(primary.Close)
		owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ownerCalls.Add(1)
			if ownerHeader != "" {
				w.Header().Set(OwnerURLHeader, ownerHeader)
			}
			if ownerStatus >= 400 {
				w.WriteHeader(ownerStatus)
				json.NewEncoder(w).Encode(errorResponse{Error: "nope"})
				return
			}
			json.NewEncoder(w).Encode(ForecastResponse{})
		}))
		t.Cleanup(owner.Close)
		c, err := NewClient(primary.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.retry = RetryPolicy{MaxAttempts: 1}
		c.setOwner("s", owner.URL)
		return c, owner, &primaryCalls, &ownerCalls
	}

	t.Run("4xx keeps the hint", func(t *testing.T) {
		c, owner, primaryCalls, ownerCalls := newPair(t, http.StatusNotFound, "")
		if _, err := c.Forecast("s", 1); err == nil {
			t.Fatal("expected a 404 error")
		}
		if got := c.owner("s"); got != owner.URL {
			t.Fatalf("owner hint = %q after 404, want %q kept", got, owner.URL)
		}
		if primaryCalls.Load() != 0 || ownerCalls.Load() != 1 {
			t.Fatalf("calls primary=%d owner=%d, want 0/1", primaryCalls.Load(), ownerCalls.Load())
		}
	})

	t.Run("5xx evicts", func(t *testing.T) {
		c, _, primaryCalls, _ := newPair(t, http.StatusServiceUnavailable, "")
		if _, err := c.Forecast("s", 1); err == nil {
			t.Fatal("expected a 503 error")
		}
		if got := c.owner("s"); got != "" {
			t.Fatalf("owner hint = %q after 503, want evicted", got)
		}
		// The next request falls back to the primary base.
		if _, err := c.Forecast("s", 1); err != nil {
			t.Fatal(err)
		}
		if primaryCalls.Load() != 1 {
			t.Fatalf("primary saw %d calls after eviction, want 1", primaryCalls.Load())
		}
	})

	t.Run("transport error evicts", func(t *testing.T) {
		c, owner, primaryCalls, _ := newPair(t, http.StatusOK, "")
		owner.Close() // the hinted node is gone: connection refused
		if _, err := c.Forecast("s", 1); err == nil {
			t.Fatal("expected a transport error")
		}
		if got := c.owner("s"); got != "" {
			t.Fatalf("owner hint = %q after transport error, want evicted", got)
		}
		if _, err := c.Forecast("s", 1); err != nil {
			t.Fatal(err)
		}
		if primaryCalls.Load() != 1 {
			t.Fatalf("primary saw %d calls after eviction, want 1", primaryCalls.Load())
		}
	})

	t.Run("error with owner hint re-learns", func(t *testing.T) {
		next := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(ForecastResponse{})
		}))
		defer next.Close()
		// The hinted owner is draining: it answers 503 but names the new
		// owner. The client must adopt the named owner, not fall back.
		c, _, primaryCalls, _ := newPair(t, http.StatusServiceUnavailable, next.URL)
		if _, err := c.Forecast("s", 1); err == nil {
			t.Fatal("expected a 503 error")
		}
		if got := c.owner("s"); got != next.URL {
			t.Fatalf("owner hint = %q after hinted 503, want %q", got, next.URL)
		}
		if _, err := c.Forecast("s", 1); err != nil {
			t.Fatal(err)
		}
		if primaryCalls.Load() != 0 {
			t.Fatalf("primary saw %d calls, want 0 (hint re-learned)", primaryCalls.Load())
		}
	})

	t.Run("success hint updates the cache", func(t *testing.T) {
		c, owner, _, ownerCalls := newPair(t, http.StatusOK, "")
		if _, err := c.Forecast("s", 1); err != nil {
			t.Fatal(err)
		}
		if got := c.owner("s"); got != owner.URL {
			t.Fatalf("owner hint = %q, want %q", got, owner.URL)
		}
		if ownerCalls.Load() != 1 {
			t.Fatalf("owner saw %d calls, want 1", ownerCalls.Load())
		}
	})
}
