package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"smiler"
	"smiler/internal/cluster"
	"smiler/internal/core"
	"smiler/internal/datasets"
	"smiler/internal/dtw"
	"smiler/internal/gp"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/ingest"
	"smiler/internal/server"
	"smiler/internal/timeseries"
	"smiler/internal/wal"
)

// ladderSteps is the length of the observe → forecast script every twin
// is fed; three passes over the horizon cycle.
const ladderSteps = 3 * len(horizons)

// ladder times each layer from outside, through its public entry
// point. Twin copies of one sensor's state (the workload's history
// length) are fed the same script, one twin per rung, so every rung does
// the same model work plus its own layer's overhead; a layer's self time
// is its rung minus the rung below. Rungs run interleaved per step and
// self times are medians of the per-step differences, which cancels the
// step-to-step variation of the shared work.
type ladderRun struct {
	m     map[string]float64
	spans []span
	epoch time.Time
	step  int
	root  int
}

// us is t on the ladder's span clock, in microseconds.
func (l *ladderRun) us(t time.Time) float64 { return float64(t.Sub(l.epoch).Nanoseconds()) / 1e3 }

// timed runs fn, records its span under the current step and returns
// the elapsed microseconds.
func (l *ladderRun) timed(name string, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.spans = append(l.spans, span{Name: name, StartUs: l.us(t0), EndUs: l.us(t1), Parent: l.root, Op: l.step})
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3, err
}

// serve runs one request through a handler in-process (httptest), the
// way tspDB times a no-op next to a prediction through the same stack.
func serve(h http.Handler, method, target string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, target, rec.Code, rec.Body.String())
	}
	return nil
}

// pairedSelf is the median of per-step differences upper[i]-lower[i],
// floored at zero: a layer cannot take negative time, and sub-resolution
// layers would otherwise flip sign with the noise.
func pairedSelf(upper, lower []float64) float64 {
	d := make([]float64, len(upper))
	for i := range d {
		d[i] = upper[i] - lower[i]
	}
	return math.Max(0, median(d))
}

// midMean averages vals over the steps whose key lies in the middle half
// of keys: components averaged over one common set of steps still add up
// to their total, which medians taken separately would not.
func midMean(keys []float64, vals []float64) float64 {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	lo, hi := len(idx)/4, len(idx)-len(idx)/4
	var sum float64
	for _, i := range idx[lo:hi] {
		sum += vals[i]
	}
	return sum / float64(hi-lo)
}

func runLadder(sp spec, seed int64, scratch string) (map[string]float64, []span, error) {
	l := &ladderRun{m: make(map[string]float64), epoch: time.Now(), root: -1}
	stream, err := datasets.NewStream(datasets.Road, seed, 0)
	if err != nil {
		return nil, nil, err
	}
	history := stream.Take(sp.history)
	const id = "s0000"
	cfg := smiler.DefaultConfig()

	// Twins, top rung to bottom.
	newSys := func() (*smiler.System, error) {
		sys, err := smiler.New(cfg)
		if err != nil {
			return nil, err
		}
		return sys, sys.AddSensor(id, history)
	}
	srvSys, err := newSys()
	if err != nil {
		return nil, nil, err
	}
	defer srvSys.Close()
	srv, err := server.New(srvSys)
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	ingSys, err := newSys()
	if err != nil {
		return nil, nil, err
	}
	defer ingSys.Close()
	pipe, err := ingest.New(ingSys, ingest.Config{})
	if err != nil {
		return nil, nil, err
	}
	defer pipe.Close()
	sys, err := newSys()
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()

	// The two lowest twins are built the way smiler.AddSensor builds a
	// sensor: z-normalised history, default index parameters, GP cells.
	norm, err := timeseries.NewNormalizer(history)
	if err != nil {
		return nil, nil, err
	}
	work := make([]float64, len(history))
	for i, v := range history {
		work[i] = norm.Apply(v)
	}
	dev, err := gpusim.NewDevice(cfg.Device)
	if err != nil {
		return nil, nil, err
	}
	params := index.Params{Rho: cfg.Rho, Omega: cfg.Omega, ELV: cfg.ELV}
	var buildMs []float64
	newIndex := func() (*index.Index, error) {
		t0 := time.Now()
		ix, err := index.New(dev, work, params)
		buildMs = append(buildMs, ms(time.Since(t0)))
		return ix, err
	}
	coreIx, err := newIndex()
	if err != nil {
		return nil, nil, err
	}
	defer coreIx.Close()
	corePipe, err := core.NewPipeline(coreIx, core.PipelineConfig{
		EKV: cfg.EKV, Index: params, Horizon: 1, Factory: func() core.Predictor { return core.NewGP() },
	})
	if err != nil {
		return nil, nil, err
	}
	ix, err := newIndex()
	if err != nil {
		return nil, nil, err
	}
	defer ix.Close()
	for len(buildMs) < 5 {
		extra, err := newIndex()
		if err != nil {
			return nil, nil, err
		}
		extra.Close()
	}
	l.m["index.build_ms"] = median(buildMs)

	// One rung = one way of observing and one way of forecasting.
	type rung struct {
		name     string
		observe  func(v float64) error
		settle   func() error // wait for an asynchronous observe to apply
		forecast func(h int) error
		obsUs    []float64
		fcUs     []float64
	}
	ctx := context.Background()
	kmax := cfg.EKV[len(cfg.EKV)-1]
	rungs := []*rung{
		{name: "server",
			observe: func(v float64) error {
				return serve(srv, http.MethodPost, "/sensors/"+id+"/observe", observeBody(v))
			},
			settle: srv.Pipeline().Drain,
			forecast: func(h int) error {
				return serve(srv, http.MethodGet, fmt.Sprintf("/sensors/%s/forecast?h=%d", id, h), nil)
			}},
		{name: "ingest",
			observe:  func(v float64) error { _, err := pipe.Observe(id, v); return err },
			settle:   pipe.Drain,
			forecast: func(h int) error { _, err := pipe.ForecastCtx(ctx, id, h); return err }},
		{name: "smiler",
			observe:  func(v float64) error { return sys.Observe(id, v) },
			forecast: func(h int) error { _, err := sys.PredictCtx(ctx, id, h); return err }},
		{name: "core",
			observe:  func(v float64) error { return corePipe.Observe(norm.Apply(v)) },
			forecast: func(h int) error { _, err := corePipe.PredictTracedCtx(ctx, h, nil); return err }},
		{name: "index",
			observe:  func(v float64) error { return ix.Advance(norm.Apply(v)) },
			forecast: func(h int) error { _, err := ix.SearchCtx(ctx, kmax, h); return err }},
	}
	var noopUs []float64
	timing := make(map[string][]float64) // core.Pipeline's own phase split, per step
	for step := 0; step < ladderSteps; step++ {
		l.step = step
		l.spans = append(l.spans, span{Name: "ladder.step", StartUs: l.us(time.Now()), Parent: -1, Op: step})
		l.root = len(l.spans) - 1
		v, h := stream.Next(), horizonFor(step)
		// Rotate which rung goes first so no rung always runs on a cold
		// or a warm cache.
		for i := range rungs {
			r := rungs[(i+step)%len(rungs)]
			us, err := l.timed(r.name+".observe", func() error { return r.observe(v) })
			if err == nil && r.settle != nil {
				err = r.settle()
			}
			if err != nil {
				return nil, nil, fmt.Errorf("ladder %s observe: %w", r.name, err)
			}
			r.obsUs = append(r.obsUs, us)
			if r.name == "core" {
				ot := corePipe.LastObserveTiming()
				timing["reweight"] = append(timing["reweight"], ot.ReweightSec*1e6)
				timing["advance"] = append(timing["advance"], ot.AdvanceSec*1e6)
			}
		}
		us, err := l.timed("server.noop", func() error { return serve(srv, http.MethodGet, "/healthz", nil) })
		if err != nil {
			return nil, nil, err
		}
		noopUs = append(noopUs, us)
		for i := range rungs {
			r := rungs[(i+step)%len(rungs)]
			us, err := l.timed(r.name+".forecast", func() error { return r.forecast(h) })
			if err != nil {
				return nil, nil, fmt.Errorf("ladder %s forecast: %w", r.name, err)
			}
			r.fcUs = append(r.fcUs, us)
			if r.name == "core" {
				pt := corePipe.Timing()
				for k, sec := range map[string]float64{
					"search": pt.SearchSec, "predict_step": pt.PredictSec, "lower_bound": pt.LowerBoundSec,
					"verify": pt.VerifySec, "cell_fit": pt.CellFitSec, "mix": pt.MixSec,
				} {
					timing[k] = append(timing[k], sec*1e6)
				}
			}
		}
		l.spans[l.root].EndUs = l.us(time.Now())
	}
	l.root = -1

	srvR, ingR, sysR, coreR, ixR := rungs[0], rungs[1], rungs[2], rungs[3], rungs[4]
	// Forecast rungs: the core rung is measured, each rung above adds its
	// non-negative self time, so the ladder is monotone by construction.
	coreMs := midMean(coreR.fcUs, coreR.fcUs) / 1e3
	l.m["core.predict_ms"] = coreMs
	l.m["smiler.predict_ms"] = coreMs + pairedSelf(sysR.fcUs, coreR.fcUs)/1e3
	l.m["ingest.forecast_ms"] = l.m["smiler.predict_ms"] + pairedSelf(ingR.fcUs, sysR.fcUs)/1e3
	l.m["server.forecast_ms"] = l.m["ingest.forecast_ms"] + pairedSelf(srvR.fcUs, ingR.fcUs)/1e3
	l.m["server.noop_us"] = median(noopUs)
	l.m["index.search_ms"] = median(ixR.fcUs) / 1e3
	l.m["core.search_ms"] = midMean(coreR.fcUs, timing["search"]) / 1e3
	l.m["core.predict_step_ms"] = midMean(coreR.fcUs, timing["predict_step"]) / 1e3
	l.m["index.lower_bound_ms"] = midMean(coreR.fcUs, timing["lower_bound"]) / 1e3
	l.m["index.verify_ms"] = midMean(coreR.fcUs, timing["verify"]) / 1e3
	l.m["gp.cell_fit_ms"] = midMean(coreR.fcUs, timing["cell_fit"]) / 1e3
	l.m["core.mix_us"] = midMean(coreR.fcUs, timing["mix"])
	// Observe rungs. The two upper ones only enqueue; ingest.apply_us
	// below is the asynchronous half.
	l.m["server.observe_us"] = median(srvR.obsUs)
	l.m["ingest.enqueue_us"] = median(ingR.obsUs)
	l.m["smiler.observe_us"] = median(sysR.obsUs)
	l.m["core.observe_us"] = median(coreR.obsUs)
	l.m["core.reweight_us"] = median(timing["reweight"])
	l.m["index.advance_us"] = median(timing["advance"])

	// ingest.apply_us: N enqueues + Drain, per observation.
	var applyUs []float64
	for rep := 0; rep < 5; rep++ {
		const n = 64
		us, err := l.timed("ingest.apply", func() error {
			for i := 0; i < n; i++ {
				if _, err := pipe.Observe(id, stream.Next()); err != nil {
					return err
				}
			}
			return pipe.Drain()
		})
		if err != nil {
			return nil, nil, err
		}
		applyUs = append(applyUs, us/n)
	}
	l.m["ingest.apply_us"] = median(applyUs)

	if err := l.tier(sys, cfg, id); err != nil {
		return nil, nil, err
	}
	if err := l.wal(scratch); err != nil {
		return nil, nil, err
	}
	if err := l.forward(history); err != nil {
		return nil, nil, err
	}
	if err := l.kernels(dev); err != nil {
		return nil, nil, err
	}
	return l.m, l.spans, nil
}

// tier times the two halves of a cold-sensor round trip: writing the
// single-sensor envelope, and decoding it into a rebuilt index.
func (l *ladderRun) tier(sys *smiler.System, cfg smiler.Config, id string) error {
	var spillMs, faultMs []float64
	var buf bytes.Buffer
	for rep := 0; rep < 5; rep++ {
		buf.Reset()
		us, err := l.timed("tier.spill", func() error { return sys.SaveSensorTo(&buf, id) })
		if err != nil {
			return err
		}
		spillMs = append(spillMs, us/1e3)
		fresh, err := smiler.New(cfg)
		if err != nil {
			return err
		}
		us, err = l.timed("tier.fault", func() error {
			_, err := fresh.RestoreSensorsFrom(bytes.NewReader(buf.Bytes()))
			return err
		})
		fresh.Close()
		if err != nil {
			return err
		}
		faultMs = append(faultMs, us/1e3)
	}
	l.m["tier.spill_ms"] = median(spillMs)
	l.m["tier.spill_bytes"] = float64(buf.Len())
	l.m["tier.fault_ms"] = median(faultMs)
	return nil
}

// wal times append and fsync separately (an fsync=always append is the
// two back to back) on the scratch storage, then a replay of the log.
func (l *ladderRun) wal(scratch string) error {
	dir, err := os.MkdirTemp(scratch, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		return err
	}
	const records = 20000
	appendUs := make([]float64, 0, records)
	syncUs := make([]float64, 0, records)
	for i := 0; i < records; i++ {
		t0 := time.Now()
		_, err := log.Append(wal.Record{Type: wal.RecObserve, Sensor: "s0000", Value: float64(i)})
		t1 := time.Now()
		if err == nil {
			err = log.Sync()
		}
		if err != nil {
			log.Close()
			return err
		}
		appendUs = append(appendUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		syncUs = append(syncUs, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	if err := log.Close(); err != nil {
		return err
	}
	l.m["wal.append_us"] = median(appendUs)
	l.m["wal.sync_us"] = median(syncUs)
	var replayed uint64
	us, err := l.timed("wal.replay", func() error {
		st, err := wal.Replay(dir, func(uint64, wal.Record) error { return nil })
		replayed = st.Records
		return err
	})
	if err != nil {
		return err
	}
	if replayed != records {
		return fmt.Errorf("wal replay saw %d of %d records", replayed, records)
	}
	l.m["wal.replay_kobs_per_s"] = float64(replayed) / 1e3 / (us / 1e6)
	return nil
}

// forward times the cluster's forward hop: two in-process nodes on
// loopback, the same cached forecast fetched through the non-owner
// (gate, intra-cluster request, relay) and from the owner directly. The
// forecast is a coalescer hit on both paths, so the difference is the
// hop alone, whatever the predictor costs.
func (l *ladderRun) forward(history []float64) error {
	type member struct {
		sys  *smiler.System
		srv  *server.Server
		ts   *httptest.Server
		node *cluster.Node
	}
	nodes := make([]*member, 2)
	members := make([]cluster.Member, 2)
	for i := range nodes {
		sys, err := smiler.New(smiler.DefaultConfig())
		if err != nil {
			return err
		}
		defer sys.Close()
		srv, err := server.NewWithOptions(sys, server.Options{NodeID: fmt.Sprintf("n%d", i+1)})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		nodes[i] = &member{sys: sys, srv: srv, ts: ts}
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i+1), URL: ts.URL}
	}
	for i, n := range nodes {
		node, err := cluster.New(n.sys, n.srv, cluster.Config{Self: members[i].ID, Members: members, Replicas: 1})
		if err != nil {
			return err
		}
		defer node.Close()
		n.node = node
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	get := func(url string, out any) error {
		resp, err := hc.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// Find a sensor id the ring places on n2, so n1 must forward.
	var sensor string
	for i := 0; sensor == ""; i++ {
		var route cluster.SensorRoute
		cand := fmt.Sprintf("fwd%d", i)
		if err := get(nodes[0].ts.URL+"/cluster/ring?sensor="+cand, &route); err != nil {
			return err
		}
		if route.Owner == "n2" {
			sensor = cand
		}
	}
	body, _ := json.Marshal(server.AddSensorRequest{ID: sensor, History: history})
	resp, err := hc.Post(nodes[1].ts.URL+"/sensors", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering %s on n2: %d", sensor, resp.StatusCode)
	}
	path := "/sensors/" + sensor + "/forecast?h=1"
	var fr server.ForecastResponse
	if err := get(nodes[1].ts.URL+path, &fr); err != nil { // fills the cache
		return err
	}
	var via, direct []float64
	for i := 0; i < 300; i++ {
		us, err := l.timed("cluster.forwarded", func() error { return get(nodes[0].ts.URL+path, &fr) })
		if err != nil {
			return err
		}
		via = append(via, us)
		us, err = l.timed("cluster.direct", func() error { return get(nodes[1].ts.URL+path, &fr) })
		if err != nil {
			return err
		}
		direct = append(direct, us)
	}
	l.m["cluster.forward_ms"] = pairedSelf(via, direct) / 1e3
	return nil
}

// kernels times the innermost building blocks at the sizes the default
// ensemble uses them: a 32-neighbour GP fit and hyperparameter search at
// d=64, one early-abandoning DTW at d=64 ρ=8, and an empty 64-block
// simulated kernel launch.
func (l *ladderRun) kernels(dev *gpusim.Device) error {
	rng := rand.New(rand.NewSource(9))
	const k, d, rho = 32, 64, 8
	x := make([][]float64, k)
	y := make([]float64, k)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = math.Sin(x[i][0]) + 0.1*rng.NormFloat64()
	}
	hyper := gp.HeuristicHyper(x, y)
	sample := func(name string, reps, inner int, fn func() error) (float64, error) {
		out := make([]float64, reps)
		for r := range out {
			us, err := l.timed(name, func() error {
				for i := 0; i < inner; i++ {
					if err := fn(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			out[r] = us / float64(inner)
		}
		return median(out), nil
	}
	var err error
	if l.m["gp.fit32_us"], err = sample("gp.fit32", 100, 1, func() error {
		m, err := gp.Fit(x, y, hyper)
		if err != nil {
			return err
		}
		_, _, err = m.Predict(x[0])
		m.Release()
		return err
	}); err != nil {
		return err
	}
	var optMs float64
	if optMs, err = sample("gp.optimize32", 20, 1, func() error {
		_, err := gp.Optimize(x, y, hyper, 5)
		return err
	}); err != nil {
		return err
	}
	l.m["gp.optimize32_ms"] = optMs / 1e3
	q, c := x[0], x[1]
	scratch := dtw.NewCompressedScratch(rho)
	full, err := dtw.DistanceCompressed(q, c, rho, scratch)
	if err != nil {
		return err
	}
	// Cutoff = the true distance: the kernel checks for abandonment on
	// every column and never takes it — the cost verify pays for a
	// candidate that turns out to be a neighbour.
	if l.m["dtw.abandon_us"], err = sample("dtw.abandon", 100, 50, func() error {
		_, _, err := dtw.DistanceCompressedAbandon(q, c, rho, full, scratch)
		return err
	}); err != nil {
		return err
	}
	l.m["gpusim.launch_us"], err = sample("gpusim.launch", 100, 10, func() error {
		return dev.Launch(64, func(*gpusim.Block) error { return nil })
	})
	return err
}
