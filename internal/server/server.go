// Package server exposes a SMiLer system as an HTTP/JSON service —
// the deployment shape the paper targets (many sensors streaming
// observations, applications pulling forecasts in real time). Writes
// and forecasts are routed through internal/ingest: a sharded
// ingestion pipeline that journals and applies every write (an
// observation, a sensor's registration or removal) under its sensor's
// shard lock before the request answers; a forecast read is
// idempotent between two observations of its sensor.
//
// Routes:
//
//	GET    /healthz                 liveness probe (200 while the process runs)
//	GET    /readyz                  readiness probe (503 while recovering
//	                                from the WAL at startup or draining on
//	                                SIGTERM)
//	GET    /stats                   sensor count + the simulated GPU's
//	                                memory in use and capacity
//	GET    /metrics                 Prometheus text exposition (prediction
//	                                phase histograms, kNN pruning counters,
//	                                ingest/forecast counters, HTTP metrics)
//	GET    /debug/trace/{sensor}    last-N prediction traces (per-phase
//	                                spans + kNN stats) as JSON; ?n=k
//	GET    /pipeline/stats          ingestion pipeline counters (per-shard
//	                                processed / errors / journal errors /
//	                                apply latency, forecast reuse hits)
//	POST   /observations            {"observations":[{"id":"...","value":x},...]}
//	                                multi-sensor bulk ingest with per-item
//	                                outcomes
//	GET    /sensors                 list sensor ids
//	POST   /sensors                 {"id": "...", "history": [...]}
//	DELETE /sensors/{id}            remove a sensor
//	GET    /sensors/{id}/forecast?h=1[&z=1.96]   one horizon, one object
//	GET    /sensors/{id}/forecasts?hs=1,3,6[&z=1.96]  a horizon ladder, an
//	                                array of the same objects in request
//	                                order (one handler serves both)
//	POST   /sensors/{id}/observe    {"value": 1.23}  (or {"values": [...]})
//	POST   /sensors/{id}/readings   {"readings":[{"at":"RFC3339","value":x},...]}
//	                                (requires Options.Interval, the -interval
//	                                flag of smiler-server; irregular readings
//	                                are regularized onto the fixed sample grid)
//	GET    /sensors/{id}/ensemble   auto-tuning weights
//
// A write answers once it is journaled and applied, in per-sensor
// order; a busy shard makes the handler wait for its lock, so a write
// is never shed. All bodies and responses are JSON.
// Errors are {"error": "..."} with an appropriate status code.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/memsys"
	"smiler/internal/obs"
	"smiler/internal/timeseries"
)

// Version identifies the serving build; it is reported by GET
// /healthz and the smiler_build_info metric so orchestrators and
// cluster peers can tell what they are probing.
const Version = "0.5.0"

// GateFunc intercepts requests between the observability middleware
// and the local route table. The cluster layer installs one to check
// sensor ownership and forward misrouted requests to their owner;
// next serves the request locally (through the idempotency layer and
// the mux).
type GateFunc func(w http.ResponseWriter, r *http.Request, next http.Handler)

// Server is an http.Handler serving one SMiLer system behind an
// ingestion pipeline.
type Server struct {
	sys  *smiler.System
	pipe *ingest.Pipeline
	mux  *http.ServeMux
	// handler is the mux wrapped in the observability middleware,
	// built once at construction.
	handler http.Handler

	// gate, when set, sees every request before local routing — the
	// cluster ownership middleware hook.
	gate atomic.Pointer[GateFunc]
	// idem replays remembered responses to retried keyed mutations.
	idem *idemCache
	// nodeID tags /healthz and build info in cluster deployments.
	nodeID string

	// log, when non-nil, receives one structured line per request
	// (method, path, status, latency, request ID).
	log *slog.Logger
	// reqPrefix + reqSeq mint process-unique request IDs.
	reqPrefix string
	reqSeq    atomic.Uint64

	// interval, when positive, enables the timestamped-readings
	// endpoint: raw (time, value) readings are regularized onto a
	// fixed grid of this period before entering the system
	// (timeseries.Regularizer).
	interval time.Duration
	regMu    sync.Mutex
	regs     map[string]*sensorReadings

	// ready/draining drive GET /readyz: a server replaying its WAL at
	// startup is alive (healthz 200) but not ready (readyz 503), and a
	// server draining on SIGTERM flips back to not-ready so load
	// balancers stop routing to it before the listener closes.
	ready    atomic.Bool
	draining atomic.Bool
}

// Options configures optional server behaviour.
type Options struct {
	// Interval, when positive, enables POST /sensors/{id}/readings:
	// irregular timestamped readings are linearly re-interpolated onto a
	// grid with this sample interval (the paper's fixed-sample-rate
	// assumption, Section 3.1), and each finalized grid sample is fed to
	// Observe.
	Interval time.Duration
	// Pipeline configures the ingestion pipeline (zero values take
	// ingest defaults: GOMAXPROCS shards). Its Journal sees every write:
	// observations, registrations and removals.
	Pipeline ingest.Config
	// Logger, when set, enables structured access logging: one line
	// per request with method, path, status, latency and request ID.
	// Nil disables the log line (request IDs and metrics still flow).
	Logger *slog.Logger
	// StartNotReady makes GET /readyz answer 503 until SetReady is
	// called — the recovery window where the WAL is still replaying.
	StartNotReady bool
	// NodeID, when set, is reported by GET /healthz and in the
	// smiler_build_info metric — the cluster node's identity.
	NodeID string
}

// New wraps a system behind a default-configured ingestion pipeline.
// The caller retains ownership of sys (and is responsible for its
// Close); call Server.Close to drain the pipeline at shutdown.
func New(sys *smiler.System) (*Server, error) {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions builds a server with explicit pipeline and readings
// configuration.
func NewWithOptions(sys *smiler.System, opts Options) (*Server, error) {
	if sys == nil {
		return nil, errors.New("server: nil system")
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("server: negative sample interval %v", opts.Interval)
	}
	pipe, err := ingest.New(sys, opts.Pipeline)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sys:       sys,
		pipe:      pipe,
		mux:       http.NewServeMux(),
		log:       opts.Logger,
		reqPrefix: strconv.FormatInt(time.Now().UnixNano(), 36),
		interval:  opts.Interval,
		regs:      make(map[string]*sensorReadings),
		idem:      newIdemCache(),
		nodeID:    opts.NodeID,
	}
	s.ready.Store(!opts.StartNotReady)
	// Flight-recorder events carry the node identity once it is known.
	if opts.NodeID != "" {
		sys.Events().SetNode(opts.NodeID)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace/", s.handleTrace)
	s.mux.HandleFunc("/debug/events", s.handleEvents)
	s.mux.HandleFunc("/pipeline/stats", s.handlePipelineStats)
	s.mux.HandleFunc("/observations", s.handleObservations)
	s.mux.HandleFunc("/sensors", s.handleSensors)
	s.mux.HandleFunc("/sensors/", s.handleSensor)
	s.handler = s.withObservability(http.HandlerFunc(s.dispatch))
	pipe.RegisterMetrics(sys.Metrics())
	if reg := sys.Metrics(); reg != nil {
		labels := []obs.Label{obs.L("version", Version), obs.L("go", runtime.Version())}
		if s.nodeID != "" {
			labels = append(labels, obs.L("node", s.nodeID))
		}
		reg.Info("smiler_build_info", "Build and node identity (value is always 1).", labels...)
	}
	return s, nil
}

// dispatch routes one request: through the installed gate (cluster
// ownership middleware) when present, then the idempotency layer, then
// the route table.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if g := s.gate.Load(); g != nil {
		(*g)(w, r, http.HandlerFunc(s.serveLocal))
		return
	}
	s.serveLocal(w, r)
}

// serveLocal handles the request on this node.
func (s *Server) serveLocal(w http.ResponseWriter, r *http.Request) {
	s.idem.serve(w, r, s.mux)
}

// ServeIdempotent runs next under the idempotency layer — the same
// response-replay cache serveLocal uses. The cluster gate intercepts
// some request paths before local routing (bulk observations) and
// routes them through here so keyed retries still dedupe.
func (s *Server) ServeIdempotent(w http.ResponseWriter, r *http.Request, next http.Handler) {
	s.idem.serve(w, r, next)
}

// SetGate installs (or clears, with nil) the ownership gate. Install
// before the listener starts serving; the gate itself must be safe for
// concurrent use.
func (s *Server) SetGate(g GateFunc) {
	if g == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&g)
}

// Handle mounts an extra route on the server's mux — the cluster layer
// adds its /cluster/* endpoints here so they flow through the same
// observability middleware as the API. A pattern mounts once.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
}

// Close stops the ingestion pipeline: it waits for observations in
// flight, after which observes answer 503. Call it after the HTTP
// listener has stopped and before checkpointing, so the checkpoint
// holds every acknowledged observation and nothing applies after it.
func (s *Server) Close() error { return s.pipe.Close() }

// Pipeline exposes the ingestion pipeline (stats, manual drains).
func (s *Server) Pipeline() *ingest.Pipeline { return s.pipe }

// SetReady flips /readyz to 200 — recovery (checkpoint load + WAL
// replay) is complete and the server can take traffic.
func (s *Server) SetReady() { s.ready.Store(true) }

// SetDraining flips /readyz to 503 ahead of shutdown so load balancers
// drain this instance while in-flight requests finish.
func (s *Server) SetDraining() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// --- payloads ---

// AddSensorRequest registers a sensor.
type AddSensorRequest struct {
	ID      string    `json:"id"`
	History []float64 `json:"history"`
}

// ObserveRequest streams one or more observations.
type ObserveRequest struct {
	Value  *float64  `json:"value,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// ForecastResponse is a forecast with its central interval. Degraded
// marks a fallback answer (the full pipeline failed or missed its
// deadline and the configured baseline answered instead) — still HTTP
// 200, because the client got a usable forecast.
type ForecastResponse struct {
	ID             string  `json:"id"`
	Horizon        int     `json:"horizon"`
	Mean           float64 `json:"mean"`
	Variance       float64 `json:"variance"`
	StdDev         float64 `json:"stddev"`
	Lo             float64 `json:"lo"`
	Hi             float64 `json:"hi"`
	Z              float64 `json:"z"`
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	// Quality is the forecast's rung on the quality ladder ("exact",
	// "progressive", "fallback"); empty from systems predating the
	// ladder.
	Quality string `json:"quality,omitempty"`
	// QualityEstimate is the probability the served neighbour sets
	// equal the exact ones (1 for exact, 0 for fallback).
	QualityEstimate float64 `json:"quality_estimate,omitempty"`
}

// StatsResponse summarizes the system.
type StatsResponse struct {
	Sensors     int   `json:"sensors"`
	DeviceUsed  int64 `json:"device_used_bytes"`
	DeviceTotal int64 `json:"device_total_bytes"`
}

// EnsembleCell reports one auto-tuning cell.
type EnsembleCell struct {
	K      int     `json:"k"`
	D      int     `json:"d"`
	Weight float64 `json:"weight"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

// HealthzResponse is the GET /healthz body: pure liveness plus enough
// identity (build version, Go runtime, cluster node id) for a prober
// or orchestrator to tell what answered. Distinct from /readyz: a
// recovering or draining process is healthy but not ready.
type HealthzResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	Go      string `json:"go"`
	Node    string `json:"node,omitempty"`
	// LastGCPauseMs and EventsHighWater summarize the node's runtime
	// health cheaply (the loader's SLO gate flags GC-degraded nodes
	// from the probe body without a full /metrics scrape). Both are 0
	// with metrics disabled.
	LastGCPauseMs   float64 `json:"last_gc_pause_ms,omitempty"`
	EventsHighWater uint64  `json:"events_high_water,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	writeJSON(w, http.StatusOK, HealthzResponse{
		Status:          "ok",
		Version:         Version,
		Go:              runtime.Version(),
		Node:            s.nodeID,
		LastGCPauseMs:   s.sys.Runtime().Stats().LastGCPauseMs,
		EventsHighWater: s.sys.Events().LastSeq(),
	})
}

// handleReadyz is the readiness probe: distinct from /healthz
// (liveness) — a recovering or draining process is alive but must not
// receive traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	used, total := s.sys.DeviceUsage()
	writeJSON(w, http.StatusOK, StatsResponse{
		Sensors:     len(s.sys.Sensors()),
		DeviceUsed:  used,
		DeviceTotal: total,
	})
}

func (s *Server) handlePipelineStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	writeJSON(w, http.StatusOK, s.pipe.Stats())
}

// BulkObserveRequest is a multi-sensor batch of observations.
type BulkObserveRequest struct {
	Observations []ingest.Observation `json:"observations"`
}

// handleObservations is the bulk ingest endpoint: one POST carries
// observations for many sensors, each applied under its shard's lock
// in request order. Per-item failures (unknown sensor, failed journal
// append) are reported in the response instead of failing the batch.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var req BulkObserveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	writeJSON(w, http.StatusOK, s.pipe.ObserveBulk(req.Observations))
}

func (s *Server) handleSensors(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.sys.Sensors())
	case http.MethodPost:
		var req AddSensorRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.ID == "" {
			writeError(w, http.StatusBadRequest, "missing sensor id")
			return
		}
		if err := s.pipe.AddSensor(req.ID, req.History); err != nil {
			status := statusFor(err)
			if strings.Contains(err.Error(), "already registered") {
				status = http.StatusConflict
			}
			writeError(w, status, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	default:
		methodNotAllowed(w)
	}
}

// handleSensor routes /sensors/{id}[/verb].
func (s *Server) handleSensor(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sensors/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing sensor id")
		return
	}
	verb := ""
	if len(parts) == 2 {
		verb = parts[1]
	}
	switch {
	case verb == "" && r.Method == http.MethodDelete:
		s.deleteSensor(w, id)
	case (verb == "forecast" || verb == "forecasts") && r.Method == http.MethodGet:
		s.ServeForecast(w, r, id, nil)
	case verb == "observe" && r.Method == http.MethodPost:
		s.observe(w, r, id)
	case verb == "readings" && r.Method == http.MethodPost:
		s.readings(w, r, id)
	case verb == "ensemble" && r.Method == http.MethodGet:
		s.ensemble(w, id)
	default:
		methodNotAllowed(w)
	}
}

func (s *Server) deleteSensor(w http.ResponseWriter, id string) {
	if err := s.pipe.RemoveSensor(id); err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	s.regMu.Lock()
	delete(s.regs, id)
	s.regMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"id": id})
}

// ServeForecast is the one forecast handler, behind both routes: GET
// /sensors/{id}/forecast?h=1[&z=1.96] answers one ForecastResponse
// object, GET /sensors/{id}/forecasts?hs=1,3,6[&z=1.96] the array for a
// ladder of horizons in request order — the same call with a longer
// horizon list, served from one shared kNN search.
//
// after, when non-nil, runs once the pipeline has answered (not for a
// malformed query): it may edit the responses, and on a prediction error
// a non-zero return replaces the error's HTTP status. The cluster's
// promoted-replica read path passes one to tag its answers.
func (s *Server) ServeForecast(w http.ResponseWriter, r *http.Request, id string, after func(out []ForecastResponse, err error) (status int)) {
	q := r.URL.Query()
	multi := strings.HasSuffix(r.URL.Path, "/forecasts")
	parts := []string{"1"}
	switch {
	case multi && q.Get("hs") == "":
		writeError(w, http.StatusBadRequest, "missing hs parameter")
		return
	case multi:
		parts = strings.Split(q.Get("hs"), ",")
	case q.Get("h") != "":
		parts[0] = q.Get("h")
	}
	hs := make([]int, len(parts))
	for i, part := range parts {
		h, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || h <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid horizon %q", part))
			return
		}
		hs[i] = h
	}
	z := 1.96
	if v := q.Get("z"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid z %q", v))
			return
		}
		z = parsed
	}
	// WithoutCancel carries the trace context into the prediction but
	// not this request's cancellation: a client that hangs up does not
	// cut the search short, so the exact answer it started still lands
	// in the sensor's pending set, where every later read of that
	// horizon before the next observation is served it.
	fs, err := s.pipe.ForecastsCtx(context.WithoutCancel(r.Context()), id, hs)
	out := make([]ForecastResponse, len(fs))
	for i, f := range fs {
		lo, hi := f.Interval(z)
		out[i] = ForecastResponse{
			ID: id, Horizon: hs[i], Mean: f.Mean, Variance: f.Variance,
			StdDev: f.StdDev(), Lo: lo, Hi: hi, Z: z,
			Degraded: f.Degraded, DegradedReason: f.DegradedReason,
			Quality: f.Quality, QualityEstimate: f.QualityEstimate,
		}
	}
	status := 0
	if after != nil {
		status = after(out, err)
	}
	if err != nil {
		if status == 0 {
			status = statusFor(err)
		}
		writeError(w, status, err.Error())
		return
	}
	s.setSpanSummary(w, r, id)
	if multi {
		writeJSON(w, http.StatusOK, out)
	} else {
		writeJSON(w, http.StatusOK, out[0])
	}
}

func (s *Server) observe(w http.ResponseWriter, r *http.Request, id string) {
	var req ObserveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var values []float64
	if req.Value != nil {
		values = append(values, *req.Value)
	}
	values = append(values, req.Values...)
	if len(values) == 0 {
		writeError(w, http.StatusBadRequest, "no values to observe")
		return
	}
	// Each value is journaled and applied before the next: a 200 means
	// all of them are, and a failure reports which value stopped.
	for i, v := range values {
		if _, err := s.pipe.Observe(id, v); err != nil {
			writeError(w, statusFor(err), fmt.Sprintf("value %d: %s", i, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"observed": len(values)})
}

// ReadingsRequest carries raw timestamped readings.
type ReadingsRequest struct {
	Readings []Reading `json:"readings"`
}

// Reading is one raw sensor reading.
type Reading struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// readings regularizes irregular timestamped readings onto the
// configured grid and observes each finalized sample.
func (s *Server) readings(w http.ResponseWriter, r *http.Request, id string) {
	if s.interval <= 0 {
		writeError(w, http.StatusNotImplemented,
			"timestamped readings need a server sample interval (-interval)")
		return
	}
	var req ReadingsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Readings) == 0 {
		writeError(w, http.StatusBadRequest, "no readings")
		return
	}
	s.regMu.Lock()
	sr, ok := s.regs[id]
	if !ok {
		reg, err := timeseries.NewRegularizer(req.Readings[0].At, s.interval)
		if err != nil {
			s.regMu.Unlock()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		sr = &sensorReadings{reg: reg}
		s.regs[id] = sr
	}
	s.regMu.Unlock()

	// Finalized grid samples enter through the pipeline like every
	// other observation. The sensor's lock spans each Add and the
	// observe of the samples it finalizes, so concurrent requests for
	// one sensor apply them in grid order.
	sr.mu.Lock()
	defer sr.mu.Unlock()
	observed := 0
	for i, rd := range req.Readings {
		samples, err := sr.reg.Add(rd.At, rd.Value)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("reading %d: %s", i, err))
			return
		}
		for _, v := range samples {
			if _, err := s.pipe.Observe(id, v); err != nil {
				writeError(w, statusFor(err), err.Error())
				return
			}
			observed++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"observed": observed,
		"pending":  sr.reg.Pending(),
	})
}

// sensorReadings is one sensor's regularizer and the lock that orders
// its readings requests.
type sensorReadings struct {
	mu  sync.Mutex
	reg *timeseries.Regularizer
}

func (s *Server) ensemble(w http.ResponseWriter, id string) {
	weights, err := s.sys.EnsembleWeights(id)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	cells := make([]EnsembleCell, 0, len(weights))
	for kd, wgt := range weights {
		cells = append(cells, EnsembleCell{K: kd[0], D: kd[1], Weight: wgt})
	}
	// Deterministic order for clients and tests.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0 && less(cells[j], cells[j-1]); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
	writeJSON(w, http.StatusOK, cells)
}

func less(a, b EnsembleCell) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	return a.D < b.D
}

// --- helpers ---

func statusFor(err error) int {
	switch {
	case errors.Is(err, ingest.ErrClosed), errors.Is(err, ingest.ErrJournal):
		// Shutdown or a failed journal append: nothing was applied, and
		// the client should retry.
		return http.StatusServiceUnavailable
	case strings.Contains(err.Error(), "unknown sensor"):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// sliceWriter appends into a caller-provided buffer (typically a
// pooled memsys slab), so JSON responses are staged without a fresh
// heap buffer per request.
type sliceWriter struct{ b []byte }

func (sw *sliceWriter) Write(p []byte) (int, error) {
	sw.b = append(sw.b, p...)
	return len(p), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	slab := memsys.GetBytes(4096)
	sw := &sliceWriter{b: slab[:0]}
	if err := json.NewEncoder(sw).Encode(v); err != nil {
		memsys.PutBytes(slab)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(sw.b)
	// Return the original slab whether or not the encoder outgrew it;
	// a grown copy just falls to the GC.
	memsys.PutBytes(slab)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func methodNotAllowed(w http.ResponseWriter) {
	writeError(w, http.StatusMethodNotAllowed, "method not allowed")
}
