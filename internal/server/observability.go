package server

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"smiler/internal/obs"
)

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// withObservability wraps the mux with the request-scoped
// observability: a request ID (echoed as X-Request-Id, honoring one
// supplied by the client), a distributed trace context (parsed from
// X-Smiler-Trace on forwarded traffic, minted otherwise, echoed on the
// response and injected into the request context so prediction traces
// carry it), a structured per-request log line when a logger is
// configured, and the HTTP request counter/latency histogram labeled
// by normalized route.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", reqID)
		tc, fromPeer := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
		if !fromPeer {
			tc = obs.TraceContext{ID: obs.NewTraceID()}
		}
		tc.Node = s.nodeID
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tc))
		w.Header().Set(obs.TraceHeader, tc.HeaderValue())
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		route := normalizeRoute(r.URL.Path)
		if reg := s.sys.Metrics(); reg != nil {
			reg.Counter("smiler_http_requests_total",
				"HTTP requests by route, method and status.",
				obs.L("route", route), obs.L("method", r.Method),
				obs.L("status", strconv.Itoa(rec.status))).Inc()
			reg.Histogram("smiler_http_request_seconds",
				"HTTP request latency by route and status code.", nil,
				obs.L("route", route),
				obs.L("code", strconv.Itoa(rec.status))).Observe(elapsed.Seconds())
		}
		if s.log != nil {
			s.log.Info("request",
				"id", reqID,
				"trace", tc.ID,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", rec.status,
				"latency", elapsed,
			)
		}
	})
}

// normalizeRoute collapses the sensor id out of a path so metric
// label cardinality stays bounded by the route table, not the sensor
// population.
func normalizeRoute(path string) string {
	if rest, ok := strings.CutPrefix(path, "/sensors/"); ok && rest != "" {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return "/sensors/{id}/" + rest[i+1:]
		}
		return "/sensors/{id}"
	}
	if rest, ok := strings.CutPrefix(path, "/debug/trace/"); ok && rest != "" {
		return "/debug/trace/{sensor}"
	}
	return path
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. 404 when the system was built with metrics disabled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	reg := s.sys.Metrics()
	if reg == nil {
		writeError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// handleTrace serves GET /debug/trace/{sensor}[?n=k]: the last n
// (default all stored, newest first) prediction traces of the sensor,
// each with its per-phase spans and kNN stats.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	store := s.sys.Traces()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	// Trim from the escaped path and unescape afterwards, so sensor ids
	// containing "/" or "%" (sent percent-encoded) resolve — the same
	// treatment the cluster proxy applies when it forwards by sensor.
	id, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/debug/trace/"))
	if err != nil || id == "" {
		writeError(w, http.StatusBadRequest, "missing or malformed sensor id")
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, "invalid n "+strconv.Quote(v))
			return
		}
		n = parsed
	}
	traces := store.Last(id, n)
	if len(traces) == 0 && !s.sys.HasSensor(id) {
		writeError(w, http.StatusNotFound, "unknown sensor "+strconv.Quote(id))
		return
	}
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// EventsResponse is the GET /debug/events body: the flight recorder's
// high-water mark plus the retained events after ?since= (oldest
// first), so a poller can tail the ring with since=<last_seq>.
type EventsResponse struct {
	LastSeq uint64      `json:"last_seq"`
	Events  []obs.Event `json:"events"`
}

// handleEvents serves GET /debug/events[?since=seq][&n=max]: the
// flight recorder's retained events. 404 when metrics are disabled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	ring := s.sys.Events()
	if ring == nil {
		writeError(w, http.StatusNotFound, "events disabled")
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since "+strconv.Quote(v))
			return
		}
		since = parsed
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, "invalid n "+strconv.Quote(v))
			return
		}
		n = parsed
	}
	evs := ring.Since(since, n)
	if evs == nil {
		evs = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, EventsResponse{LastSeq: ring.LastSeq(), Events: evs})
}

// setSpanSummary attaches the just-recorded trace's compact span
// summary to the response of a forwarded request (hop > 0), so the
// entry node can inline this node's phase spans into its hop trace.
// The trace is matched by distributed trace id: a reused answer, which
// did not run this request's pipeline, simply sets nothing.
func (s *Server) setSpanSummary(w http.ResponseWriter, r *http.Request, id string) {
	tc, ok := obs.TraceFromContext(r.Context())
	if !ok || tc.Hop == 0 {
		return
	}
	for _, tr := range s.sys.Traces().Last(id, 4) {
		if tr.TraceID == tc.ID {
			w.Header().Set(obs.SpanSummaryHeader, obs.EncodeSpans(tr.Spans))
			return
		}
	}
}
