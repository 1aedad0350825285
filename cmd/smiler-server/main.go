// Command smiler-server runs the SMiLer prediction system as an
// HTTP/JSON service. Sensors are registered and fed over the API (see
// internal/server for the routes); observations flow through a
// sharded ingestion pipeline (internal/ingest); an optional
// checkpoint file persists state across restarts.
//
// Usage:
//
//	smiler-server -addr :8080
//	smiler-server -addr :8080 -predictor ar -checkpoint state.ckpt
//	smiler-server -shards 8 -wal-dir wal/ -fsync interval
//	smiler-server -addr :8080 -pprof -log-level debug
//	smiler-server -checkpoint state.ckpt -wal-dir wal/ -fsync always
//	smiler-server -predict-deadline 200ms -degraded-fallback ar1
//	smiler-server -node-id n1 -cluster-peers n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080
//
// With -checkpoint, state is loaded at startup (if the file exists)
// and saved on clean shutdown (SIGINT/SIGTERM). Shutdown first stops
// the listener, then drains the ingestion pipeline, then writes the
// checkpoint — no accepted observation is lost.
//
// With -wal-dir, every write (an observation, a sensor's registration
// or removal) is appended to a sharded write-ahead log under its
// sensor's shard lock before it is applied, and
// recovered on the next start even after a crash: startup replays the
// WAL on top of the checkpoint, stopping cleanly at the first torn
// record. -fsync picks the durability/latency trade-off (see
// docs/ROBUSTNESS.md for the loss window of each policy). GET /readyz
// answers 503 until recovery completes and again while draining;
// /healthz stays pure liveness.
//
// -predict-deadline is a quality budget on the ladder exact →
// progressive → fallback: a prediction that hits it mid-search answers
// from the best verified-so-far neighbor set (the response carries
// quality "progressive" plus a numeric quality estimate). With
// -degraded-fallback, predictions that fail, or whose deadline fires
// before any neighbor set exists, are answered by a cheap stateless
// predictor (persistence or AR(1)) and tagged "degraded" in the
// response instead of erroring.
//
// With -cluster-peers (and a matching -node-id), the process is one
// member of a cluster: a consistent-hash ring assigns each sensor a
// primary plus -replicas async followers, any node accepts any request
// and forwards it to the owner, and when a primary stops answering
// /readyz for -probe-failures consecutive probes its replica serves
// forecasts tagged degraded_reason "replica" (writes are refused with
// 503 until the primary returns). Every member boots with the same
// -cluster-peers list, and the ring is fixed for the cluster's life.
// See docs/CLUSTER.md.
//
// Observability: GET /metrics serves Prometheus text exposition and
// GET /debug/trace/{sensor} the recent prediction traces (see
// docs/OBSERVABILITY.md). -pprof additionally mounts the standard
// net/http/pprof profiling endpoints under /debug/pprof/ on the same
// listener; it is off by default because profiling endpoints can
// expose memory contents. Logs are structured (log/slog, text
// format); -log-level sets the floor (debug|info|warn|error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smiler"
	"smiler/internal/cluster"
	"smiler/internal/ingest"
	"smiler/internal/obs"
	"smiler/internal/server"
	"smiler/internal/wal"
)

// options carries every tunable of the server process.
type options struct {
	addr       string
	predictor  string
	maxHistory int
	checkpoint string
	interval   time.Duration
	shards     int
	logLevel   string
	pprof      bool

	maxHotSensors int
	spillDir      string

	walDir          string
	fsync           string
	predictDeadline time.Duration
	fallback        string

	nodeID        string
	clusterPeers  string
	replicas      int
	probeInterval time.Duration
	probeFailures int
	maxStaleness  time.Duration
	clusterSecret string

	// onReady, when set, is called with the bound listen address once
	// the listener is accepting (tests use it to find an ephemeral
	// port).
	onReady func(addr string)
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "smiler-server:", err)
		os.Exit(1)
	}
}

// registerFlags binds every command-line flag to o. It is the server's
// whole flag surface, and TestFlagSurface pins it: a new flag has to
// edit that test, and name the workload that needs it there.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.predictor, "predictor", "gp", "predictor: gp|ar")
	fs.IntVar(&o.maxHistory, "max-history", 0, "cap indexed history per sensor (0 = unlimited)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file (load at start, save at shutdown)")
	fs.DurationVar(&o.interval, "interval", 0, "fixed sample interval enabling POST /sensors/{id}/readings (0 = disabled)")
	fs.IntVar(&o.shards, "shards", 0, "ingestion shard locks ordering each sensor's writes, and the log count of a fresh -wal-dir (0 = GOMAXPROCS)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log floor: debug|info|warn|error")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	fs.IntVar(&o.maxHotSensors, "max-hot-sensors", 0, "cap on sensors kept hot in memory; the LRU excess spills to disk (0 = unlimited)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "directory for cold-sensor spill and tail files (empty = temp dir; wiped at boot)")
	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead-log directory (empty = no WAL)")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy: always|interval (every 50ms)|off")
	fs.DurationVar(&o.predictDeadline, "predict-deadline", 0, "per-prediction deadline: a mid-search expiry answers from the verified-so-far neighbor set, quality \"progressive\" (0 = none)")
	fs.StringVar(&o.fallback, "degraded-fallback", "none", "degraded-mode predictor: none|persistence|ar1")
	fs.StringVar(&o.nodeID, "node-id", "", "this node's cluster member id (enables clustering with -cluster-peers)")
	fs.StringVar(&o.clusterPeers, "cluster-peers", "", `static membership incl. self: "n1=http://host1:8080,n2=http://host2:8080"`)
	fs.IntVar(&o.replicas, "replicas", 1, "follower copies per sensor")
	fs.DurationVar(&o.probeInterval, "probe-interval", 0, "peer health probe period (0 = default 500ms)")
	fs.IntVar(&o.probeFailures, "probe-failures", 0, "consecutive probe failures before failover (0 = default 3)")
	fs.DurationVar(&o.maxStaleness, "max-staleness", 0, "staleness bound for promoted-replica reads (0 = default 5m)")
	fs.StringVar(&o.clusterSecret, "cluster-secret", "", "shared secret required on the peer /cluster/* endpoints (empty = membership-header check only)")
}

// parseLogLevel maps the -log-level flag onto a slog.Level. Empty
// defaults to info so an explicit flag value is never required.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q", s)
}

func run(o options) error {
	level, err := parseLogLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cfg := smiler.DefaultConfig()
	switch strings.ToLower(o.predictor) {
	case "gp":
		cfg.Predictor = smiler.PredictorGP
	case "ar":
		cfg.Predictor = smiler.PredictorAR
	default:
		return fmt.Errorf("unknown predictor %q", o.predictor)
	}
	cfg.MaxHistory = o.maxHistory
	cfg.MaxHotSensors = o.maxHotSensors
	cfg.SpillDir = o.spillDir
	cfg.PredictDeadline = o.predictDeadline
	fb, err := smiler.ParseFallback(o.fallback)
	if err != nil {
		return err
	}
	cfg.Fallback = fb

	sys, cover, err := loadOrNew(cfg, o.checkpoint, logger)
	if err != nil {
		return err
	}
	defer sys.Close()
	// The flight recorder is a black box: whatever it retained gets
	// dumped to stderr if the process dies on a panic, so the last
	// failovers/WAL events survive in the crash log.
	defer func() {
		if r := recover(); r != nil {
			dumpEvents(sys, fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()

	opts := server.Options{
		Interval:      o.interval,
		Logger:        logger,
		StartNotReady: true,
		Pipeline:      ingest.Config{Shards: o.shards},
	}
	var mgr *wal.Manager
	if o.walDir != "" {
		mgr, err = openDurability(sys, cover, o, logger)
		if err != nil {
			return err
		}
		opts.Pipeline.Journal = mgr.Append
		registerWALMetrics(sys.Metrics(), mgr)
	}

	opts.NodeID = o.nodeID
	handler, err := server.NewWithOptions(sys, opts)
	if err != nil {
		if mgr != nil {
			mgr.Close()
		}
		return err
	}
	if o.clusterPeers != "" {
		members, err := parseClusterPeers(o.clusterPeers)
		if err != nil {
			return err
		}
		node, err := cluster.New(sys, handler, cluster.Config{
			Self:          o.nodeID,
			Members:       members,
			Replicas:      o.replicas,
			ProbeInterval: o.probeInterval,
			ProbeFailures: o.probeFailures,
			MaxStaleness:  o.maxStaleness,
			Secret:        o.clusterSecret,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		defer node.Close()
		logger.Info("cluster enabled", "self", o.nodeID, "members", len(members), "replicas", o.replicas)
	}
	srv := &http.Server{
		Handler:           rootHandler(handler, o.pprof),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", ln.Addr().String(),
			"predictor", strings.ToLower(o.predictor),
			"pprof", o.pprof,
		)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	// Recovery (checkpoint load + WAL replay) finished before the
	// listener came up, so readiness follows immediately; /readyz flips
	// back to 503 when shutdown starts draining.
	handler.SetReady()
	// The boot marker anchors the flight recorder: every later event
	// reads relative to a known process start, and the events counter is
	// live from the first scrape.
	sys.Events().Record(obs.Event{
		Type:   "startup",
		Detail: "listening on " + ln.Addr().String() + ", predictor " + strings.ToLower(o.predictor),
	})
	if o.onReady != nil {
		o.onReady(ln.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	}

	// Flip /readyz to 503 first so load balancers stop routing, then
	// stop the listener (in-flight requests get the grace period).
	handler.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	// The listener is stopped: close the pipeline so no observation
	// applies after state is persisted.
	if err := handler.Close(); err != nil {
		return err
	}
	st := handler.Pipeline().Stats()
	logger.Info("pipeline drained",
		"processed", st.Totals.Processed,
		"errors", st.Totals.Errors,
	)
	if err := shutdownDurability(sys, mgr, o, logger); err != nil {
		return err
	}
	// Black-box dump: everything the flight recorder retained, on the
	// way out, after the shutdown checkpoint/WAL events were recorded.
	dumpEvents(sys, "shutdown")
	return <-errCh
}

// dumpEvents writes the flight recorder's retained events to stderr
// with framing lines — the black-box readout for post-mortems. A
// no-op with metrics disabled or an empty ring.
func dumpEvents(sys *smiler.System, reason string) {
	ring := sys.Events()
	if ring == nil || ring.LastSeq() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "--- flight recorder (%s, %d events recorded) ---\n", reason, ring.LastSeq())
	_, _ = ring.WriteTo(os.Stderr)
	fmt.Fprintln(os.Stderr, "--- end flight recorder ---")
}

// parseClusterPeers parses "-cluster-peers n1=http://a:1,n2=http://b:2"
// into the membership list (which must include this node).
func parseClusterPeers(s string) ([]cluster.Member, error) {
	var members []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("bad -cluster-peers entry %q (want id=url)", part)
		}
		members = append(members, cluster.Member{ID: id, URL: u})
	}
	if len(members) == 0 {
		return nil, errors.New("-cluster-peers is empty")
	}
	return members, nil
}

// rootHandler mounts the pprof endpoints next to the API handler when
// enabled. The server's own /debug/trace/ namespace does not collide
// with /debug/pprof/; everything else falls through to the API.
func rootHandler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}

// loadOrNew restores the system from a checkpoint when one exists,
// returning the WAL cover the checkpoint embeds (nil without one) for
// WAL replay to skip records the checkpoint already contains.
func loadOrNew(cfg smiler.Config, path string, logger *slog.Logger) (*smiler.System, map[int]uint64, error) {
	if path == "" {
		sys, err := smiler.New(cfg)
		return sys, nil, err
	}
	sys, cover, err := smiler.LoadFileWithCover(path, cfg)
	if errors.Is(err, os.ErrNotExist) {
		sys, err := smiler.New(cfg)
		return sys, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("loading checkpoint %s: %w", path, err)
	}
	logger.Info("checkpoint restored", "sensors", len(sys.Sensors()), "path", path)
	sys.Events().Record(obs.Event{
		Type:   "checkpoint_restore",
		Detail: fmt.Sprintf("%d sensor(s) from %s", len(sys.Sensors()), path),
	})
	return sys, cover, nil
}

// saveCheckpoint writes crash-atomically: temp file, fsync, rename,
// directory fsync. A crash mid-save leaves the previous checkpoint
// intact. cover embeds the WAL positions the checkpoint reaches so
// replay can skip covered records (nil without a WAL).
func saveCheckpoint(sys *smiler.System, path string, cover map[int]uint64) error {
	return sys.SaveFileWithCover(path, cover)
}
