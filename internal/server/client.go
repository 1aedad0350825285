package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/ingest"
)

// OwnerURLHeader is set by a cluster node on sensor-scoped responses:
// the base URL of the node that owns the sensor. A ring-aware client
// caches it and sends that sensor's next requests straight to the
// owner, skipping the forwarding hop.
const OwnerURLHeader = "X-Smiler-Owner-Url"

// RetryPolicy bounds the client's automatic retries. Retries fire on
// transport errors, HTTP 5xx and HTTP 429, with jittered exponential
// backoff — except when the response carries a Retry-After header
// (cluster nodes send one on every deliberate 503: replica write
// rejection), in which case the client sleeps
// what the server asked for (capped at MaxDelay, plus up to 10%
// jitter) instead of its own schedule. GETs are idempotent and always
// eligible; POST/DELETE are retried too because every mutation
// carries a unique idempotency key (IdempotencyKeyHeader) that the
// server — or the cluster node that ends up applying the forwarded
// request — deduplicates, so a retry after a lost response cannot
// double-apply.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	MaxAttempts int
	// BaseDelay is the first backoff step (doubled per attempt, with
	// up to 50% uniform jitter added).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep.
	MaxDelay time.Duration
}

// DefaultRetryPolicy retries up to 3 times with 50ms/100ms jittered
// backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// HTTPError is an API-level failure: the server answered, with a
// non-2xx status. It preserves the status code (so callers can branch
// on 409/404/503 without string matching) and any Retry-After hint
// the server attached. Transport failures (connection refused, reset,
// timeout) are NOT HTTPErrors.
type HTTPError struct {
	// Method and Path identify the failed request.
	Method, Path string
	// Status is the HTTP status code.
	Status int
	// Msg is the server's {"error": ...} body, when one was sent.
	Msg string
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("server: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// parseRetryAfter reads a Retry-After value: delta-seconds or an
// HTTP date (RFC 9110 §10.2.3). Returns 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// Client is a typed HTTP client for the SMiLer service. It is a thin
// convenience wrapper for tools and tests; any HTTP client works.
// Against a cluster it is ring-aware: ownership hints returned by any
// node (OwnerURLHeader) are remembered per sensor, so follow-up
// requests go straight to the owner.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	// idemPrefix + idemSeq mint process-unique idempotency keys for
	// mutations.
	idemPrefix string
	idemSeq    atomic.Uint64

	// owners caches sensor → owner base URL hints from cluster nodes.
	ownersMu sync.Mutex
	owners   map[string]string
}

// NewClient targets a service at base (e.g. "http://localhost:8080").
// httpClient may be nil for http.DefaultClient. The client retries
// requests per DefaultRetryPolicy.
func NewClient(base string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("server: invalid base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("server: base URL %q must be absolute", base)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimSuffix(u.String(), "/"),
		hc:    httpClient,
		retry: DefaultRetryPolicy(),
		idemPrefix: strconv.FormatInt(time.Now().UnixNano(), 36) + "-" +
			strconv.FormatUint(rand.Uint64(), 36),
		owners: make(map[string]string),
	}, nil
}

func (c *Client) do(method, path string, body, out any) error {
	return c.doSensor(context.Background(), "", method, path, body, out)
}

func (c *Client) doCtx(ctx context.Context, method, path string, body, out any) error {
	return c.doSensor(ctx, "", method, path, body, out)
}

// owner returns the cached owner base URL for a sensor ("" when
// unknown).
func (c *Client) owner(sensor string) string {
	c.ownersMu.Lock()
	defer c.ownersMu.Unlock()
	return c.owners[sensor]
}

func (c *Client) setOwner(sensor, base string) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return // malformed hint; ignore
	}
	base = strings.TrimSuffix(u.String(), "/")
	c.ownersMu.Lock()
	if base == c.base {
		delete(c.owners, sensor) // the primary base is the owner; no hint needed
	} else {
		c.owners[sensor] = base
	}
	c.ownersMu.Unlock()
}

func (c *Client) clearOwner(sensor string) {
	c.ownersMu.Lock()
	delete(c.owners, sensor)
	c.ownersMu.Unlock()
}

// doSensor issues one API request, retrying per the policy. The body
// is marshaled exactly once, up front — every retry resends the same
// bytes. Mutations get a fresh idempotency key (one per logical
// request, shared by its retries) so the server can deduplicate them.
// When sensor is non-empty, a cached ownership hint routes the request
// straight to the owning cluster node; hints are updated from
// responses and dropped when the hinted node fails. On exhaustion the
// returned error reports how many attempts were made.
func (c *Client) doSensor(ctx context.Context, sensor, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = b
	}
	idemKey := ""
	if method != http.MethodGet {
		idemKey = c.idemPrefix + "-" + strconv.FormatUint(c.idemSeq.Add(1), 36)
	}
	attempts := 1
	if c.retry.MaxAttempts > 1 {
		attempts = c.retry.MaxAttempts
	}
	var lastErr error
	made := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// A Retry-After hint from the previous response overrides the
			// exponential schedule: the server knows when it will be ready
			// (primary recovery).
			var hint time.Duration
			var he *HTTPError
			if errors.As(lastErr, &he) {
				hint = he.RetryAfter
			}
			if err := c.sleepBackoff(ctx, attempt, hint); err != nil {
				return attemptsErr(lastErr, made)
			}
		}
		base := c.base
		usedHint := false
		if sensor != "" {
			if o := c.owner(sensor); o != "" {
				base, usedHint = o, true
			}
		}
		made++
		ownerHint, err, retryable := c.doOnce(ctx, base, method, path, payload, body != nil, idemKey, out)
		if err == nil {
			if sensor != "" && ownerHint != "" {
				c.setOwner(sensor, ownerHint)
			}
			return nil
		}
		lastErr = err
		if sensor != "" {
			switch {
			case ownerHint != "":
				// The failed response itself named an owner (a 503 from a
				// promoted replica, say): re-learn rather than forget.
				c.setOwner(sensor, ownerHint)
			case usedHint && evictOwner(err):
				// The hinted owner is unreachable or in server-side
				// trouble (connection error or 5xx): fall back to the
				// primary base, whose gate re-resolves ownership. API
				// errors like 404/409 are answers, not routing failures —
				// keep the hint for those.
				c.clearOwner(sensor)
			}
		}
		if !retryable || ctx.Err() != nil {
			return attemptsErr(err, made)
		}
	}
	return attemptsErr(lastErr, made)
}

// evictOwner reports whether a failure against a hinted owner should
// drop the cached hint: transport errors (the node is gone) and 5xx
// (the node is up but refusing — draining, overloaded, promoted).
// 4xx responses are authoritative answers about the request, not the
// routing, so the hint stays.
func evictOwner(err error) bool {
	var he *HTTPError
	if !errors.As(err, &he) {
		return true // transport error: connection refused, reset, timeout
	}
	return he.Status >= 500
}

// attemptsErr annotates the final error with the attempt count so a
// log line distinguishes "failed instantly" from "failed after the
// whole backoff budget".
func attemptsErr(err error, made int) error {
	if err == nil || made <= 1 {
		return err
	}
	return fmt.Errorf("%w (after %d attempts)", err, made)
}

// sleepBackoff waits before the attempt-th retry: the server's
// Retry-After hint when one was sent (capped at MaxDelay, ~10%
// jitter), the jittered exponential schedule otherwise. Returns early
// on ctx cancellation.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, hint time.Duration) error {
	var d time.Duration
	if hint > 0 {
		d = hint
		if c.retry.MaxDelay > 0 && d > c.retry.MaxDelay {
			d = c.retry.MaxDelay
		}
		// Light jitter only: the point of honoring the hint is to come
		// back when the server said it would be ready, not sooner.
		d += time.Duration(rand.Int63n(int64(d)/10 + 1))
	} else {
		d = c.retry.BaseDelay << (attempt - 1)
		if c.retry.MaxDelay > 0 && d > c.retry.MaxDelay {
			d = c.retry.MaxDelay
		}
		if d <= 0 {
			d = time.Millisecond
		}
		// Up to 50% uniform jitter decorrelates clients retrying in sync.
		// The top-level rand functions are safe for the concurrent GETs a
		// shared Client serves; a per-Client *rand.Rand would race.
		d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce issues a single request against base. ownerHint is the
// sensor-ownership hint from the response headers (empty when absent);
// retryable reports whether a failure is safe and worthwhile to retry.
func (c *Client) doOnce(ctx context.Context, base, method, path string, payload []byte, hasBody bool, idemKey string, out any) (ownerHint string, err error, retryable bool) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return "", err, false
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err, true // transport error: connection refused, reset, timeout
	}
	defer resp.Body.Close()
	ownerHint = resp.Header.Get(OwnerURLHeader)
	if resp.StatusCode >= 400 {
		retry := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		he := &HTTPError{
			Method: method, Path: path, Status: resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		var er errorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			he.Msg = er.Error
		}
		return ownerHint, he, retry
	}
	if out == nil {
		return ownerHint, nil, false
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return ownerHint, err, false
	}
	return ownerHint, nil, false
}

// AddSensor registers a sensor with its history.
func (c *Client) AddSensor(id string, history []float64) error {
	return c.doSensor(context.Background(), id, http.MethodPost, "/sensors",
		AddSensorRequest{ID: id, History: history}, nil)
}

// RemoveSensor deletes a sensor.
func (c *Client) RemoveSensor(id string) error {
	return c.doSensor(context.Background(), id, http.MethodDelete, "/sensors/"+url.PathEscape(id), nil, nil)
}

// Sensors lists registered sensor ids.
func (c *Client) Sensors() ([]string, error) {
	var out []string
	err := c.do(http.MethodGet, "/sensors", nil, &out)
	return out, err
}

// Forecast requests an h-step-ahead forecast.
func (c *Client) Forecast(id string, h int) (ForecastResponse, error) {
	var out ForecastResponse
	err := c.doSensor(context.Background(), id, http.MethodGet,
		fmt.Sprintf("/sensors/%s/forecast?h=%d", url.PathEscape(id), h), nil, &out)
	return out, err
}

// Observe streams one observation.
func (c *Client) Observe(id string, value float64) error {
	return c.doSensor(context.Background(), id, http.MethodPost, "/sensors/"+url.PathEscape(id)+"/observe",
		ObserveRequest{Value: &value}, nil)
}

// ObserveBatch streams several observations in order.
func (c *Client) ObserveBatch(id string, values []float64) error {
	return c.doSensor(context.Background(), id, http.MethodPost, "/sensors/"+url.PathEscape(id)+"/observe",
		ObserveRequest{Values: values}, nil)
}

// Ensemble fetches the sensor's auto-tuning weights.
func (c *Client) Ensemble(id string) ([]EnsembleCell, error) {
	var out []EnsembleCell
	err := c.doSensor(context.Background(), id, http.MethodGet,
		"/sensors/"+url.PathEscape(id)+"/ensemble", nil, &out)
	return out, err
}

// Stats fetches system statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do(http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Healthz checks liveness.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Forecasts requests several horizons from one shared kNN search.
func (c *Client) Forecasts(id string, hs []int) ([]ForecastResponse, error) {
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = fmt.Sprint(h)
	}
	var out []ForecastResponse
	err := c.doSensor(context.Background(), id, http.MethodGet,
		fmt.Sprintf("/sensors/%s/forecasts?hs=%s", url.PathEscape(id), strings.Join(parts, ",")),
		nil, &out)
	return out, err
}

// SendReadings posts raw timestamped readings for grid regularization
// (requires a server built with Options.Interval, smiler-server's
// -interval).
func (c *Client) SendReadings(id string, readings []Reading) error {
	return c.doSensor(context.Background(), id, http.MethodPost, "/sensors/"+url.PathEscape(id)+"/readings",
		ReadingsRequest{Readings: readings}, nil)
}

// ObserveMany bulk-ingests observations spanning many sensors in one
// request and reports per-item outcomes.
func (c *Client) ObserveMany(obs []ingest.Observation) (ingest.BulkResult, error) {
	var out ingest.BulkResult
	err := c.do(http.MethodPost, "/observations", BulkObserveRequest{Observations: obs}, &out)
	return out, err
}

// PipelineStats fetches the ingestion pipeline counters.
func (c *Client) PipelineStats() (ingest.Stats, error) {
	var out ingest.Stats
	err := c.do(http.MethodGet, "/pipeline/stats", nil, &out)
	return out, err
}
