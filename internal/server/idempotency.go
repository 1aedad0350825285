package server

import (
	"bytes"
	"net/http"
	"sync"
	"time"
)

// Idempotency headers. A client that wants a mutation (POST/DELETE) to
// be safely retryable attaches a unique IdempotencyKeyHeader; the
// server remembers the first response under that key for a bounded
// window and replays it to duplicates, so a retry after a lost
// response cannot double-apply an observation or registration. The
// cluster forwarder propagates the key, so deduplication holds across
// the node that applies the request, not just the node that received
// it. Replayed responses carry IdempotentReplayHeader: 1.
const (
	IdempotencyKeyHeader   = "X-Smiler-Idempotency-Key"
	IdempotentReplayHeader = "X-Smiler-Idempotent-Replay"
)

const (
	// idemMaxEntries bounds the dedupe window by count (FIFO eviction).
	idemMaxEntries = 4096
	// idemTTL bounds the dedupe window by age: a key older than this is
	// forgotten — retries arrive within seconds, not minutes.
	idemTTL = 2 * time.Minute
	// idemMaxBody bounds a cached response body; larger responses are
	// served but not cached (their requests re-execute on retry).
	idemMaxBody = 64 << 10
)

// idemEntry is one remembered (or in-flight) keyed mutation.
type idemEntry struct {
	done        chan struct{} // closed once the first execution finished
	at          time.Time
	status      int
	contentType string
	body        []byte
	cached      bool // false: execution finished but was not cacheable (5xx)
}

// idemCache is the response-replay table behind the idempotency
// middleware. In-flight duplicates coalesce (the follower waits for
// the leader's response), finished ones replay from the cache.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
	order   []string // insertion order for FIFO + TTL eviction
}

func newIdemCache() *idemCache {
	return &idemCache{entries: make(map[string]*idemEntry)}
}

// idemRecorder captures the handler's response so it can be both sent
// and cached.
type idemRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
	over   bool // body exceeded idemMaxBody: serve but don't cache
}

func (r *idemRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *idemRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if !r.over {
		if r.buf.Len()+len(b) <= idemMaxBody {
			r.buf.Write(b)
		} else {
			r.over = true
			r.buf.Reset()
		}
	}
	return r.ResponseWriter.Write(b)
}

// serve runs next under the idempotency contract: mutations carrying a
// key execute at most once per key within the dedupe window;
// duplicates get the remembered response. Requests without a key (and
// all GETs) pass straight through.
func (c *idemCache) serve(w http.ResponseWriter, r *http.Request, next http.Handler) {
	key := r.Header.Get(IdempotencyKeyHeader)
	if key == "" || (r.Method != http.MethodPost && r.Method != http.MethodDelete) {
		next.ServeHTTP(w, r)
		return
	}
	for {
		c.mu.Lock()
		c.evictLocked()
		e, ok := c.entries[key]
		if !ok {
			e = &idemEntry{done: make(chan struct{}), at: time.Now()}
			c.entries[key] = e
			c.order = append(c.order, key)
			c.mu.Unlock()
			c.run(w, r, next, key, e)
			return
		}
		c.mu.Unlock()
		<-e.done
		if !e.cached {
			// The first execution was not cacheable (a 5xx that may not
			// have applied): this retry re-executes. The entry was already
			// removed, so the next loop iteration becomes the leader.
			continue
		}
		if e.contentType != "" {
			w.Header().Set("Content-Type", e.contentType)
		}
		w.Header().Set(IdempotentReplayHeader, "1")
		w.WriteHeader(e.status)
		_, _ = w.Write(e.body)
		return
	}
}

// run executes the leader request and records its response.
func (c *idemCache) run(w http.ResponseWriter, r *http.Request, next http.Handler, key string, e *idemEntry) {
	rec := &idemRecorder{ResponseWriter: w}
	next.ServeHTTP(rec, r)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	c.mu.Lock()
	// Transient failures (5xx: a node not ready or shutting down, a
	// failed forward hop) are not remembered, so the retry re-executes
	// rather than replays the failure forever. A multi-value observe
	// cut off by shutdown keeps the values it enqueued before the
	// pipeline closed.
	if rec.status >= 500 || rec.over {
		delete(c.entries, key)
	} else {
		e.status = rec.status
		e.contentType = rec.Header().Get("Content-Type")
		e.body = append([]byte(nil), rec.buf.Bytes()...)
		e.cached = true
	}
	c.mu.Unlock()
	close(e.done)
}

// evictLocked drops expired and over-cap entries from the front of the
// FIFO. In-flight entries (done not yet closed) are never evicted.
func (c *idemCache) evictLocked() {
	now := time.Now()
	for len(c.order) > 0 {
		key := c.order[0]
		e, ok := c.entries[key]
		if ok {
			if len(c.order) <= idemMaxEntries && now.Sub(e.at) < idemTTL {
				return
			}
			select {
			case <-e.done:
			default:
				return // in flight; keep (and keep everything younger)
			}
			delete(c.entries, key)
		}
		c.order = c.order[1:]
	}
}
