package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"smiler/internal/ingest"
)

// setupRepeats is how many times a run sets the stack up from nothing;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 3

// runOpts are the per-invocation settings.
type runOpts struct {
	seed    int64
	seconds float64 // steady duration when rounds == 0
	rounds  int     // fixed steady rounds per client (0 = run for seconds)
	// noBarrier drops the drain barrier between a round's observes and
	// its forecasts. Test-only: it exists to prove the stale-read check
	// can fail.
	noBarrier bool
	// setups overrides setupRepeats (tests use 1).
	setups int
}

// result is one workload run: the metrics by name plus the failure
// accounting the driver wants.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	problems  []string
	samples   int // steady forecasts behind the latency percentiles
	rounds    int // steady rounds, summed over clients
	storage   string
}

func (r *result) problem(format string, a ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// stack is one set-up, ready to measure: servers running, population
// registered, warm-up rounds played.
type stack struct {
	cl      *procSet
	sc      *script
	clients [clients]*client
	oracle  map[int]*[]oracleOp
}

// eachClient runs fn on every client concurrently and waits.
func (s *stack) eachClient(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// setUp spawns the stack, registers the population over the clients'
// connections and plays the warm-up rounds. It returns the wall time
// from spawn to warm, which is setup_s; generating the data is not part
// of it.
func setUp(e *env, sp spec, o runOpts) (*stack, float64, error) {
	sc, err := newScript(sp, o.seed)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cl, err := e.startCluster(sp)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{cl: cl, sc: sc, oracle: make(map[int]*[]oracleOp)}
	for i := 0; i < sp.oracles; i++ {
		s.oracle[i] = new([]oracleOp)
	}
	for i := range s.clients {
		s.clients[i] = newClient(i, sc, cl, s.oracle)
		s.clients[i].barrier = !o.noBarrier
	}
	errs := make([]error, clients)
	s.eachClient(func(c *client) { errs[c.id] = c.register() })
	for _, err := range errs {
		if err != nil {
			cl.stop()
			return nil, 0, fmt.Errorf("registering sensors: %w", err)
		}
	}
	s.eachClient(func(c *client) { c.runPhase(false, sp.warmup, time.Time{}) })
	return s, time.Since(start).Seconds(), nil
}

// steadyOut is what one measured phase recorded, per client, plus the
// server CPU it used.
type steadyOut struct {
	phases     [clients]*phaseStats
	cpuSeconds float64
}

// steady runs one measured phase on both clients at once.
func (s *stack) steady(o runOpts, trace bool) (steadyOut, error) {
	var out steadyOut
	pids := s.cl.pids()
	cpu0, err := cpuSeconds(pids)
	if err != nil {
		return out, err
	}
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(o.seconds * float64(time.Second)))
	s.eachClient(func(c *client) {
		c.trace, c.epoch = trace, epoch
		out.phases[c.id] = c.runPhase(true, o.rounds, deadline)
	})
	cpu1, err := cpuSeconds(pids)
	if err != nil {
		return out, err
	}
	out.cpuSeconds = cpu1 - cpu0
	return out, nil
}

// foldSteady turns the per-client recordings into the end-to-end
// numbers. Throughput is the sum of the per-client rates, so the tail in
// which one client has already finished does not dilute it.
func (r *result) foldSteady(out steadyOut) {
	var forecastMs []float64
	var obsRate, fcRate, absErr, absPers float64
	ops := 0
	for _, p := range out.phases {
		r.attempted += p.attempted
		r.failed += p.failed
		if p.firstErr != nil {
			r.problem("%d operation(s) failed, first: %v", p.failed, p.firstErr)
		}
		sec := p.elapsed.Seconds()
		obsRate += float64(p.observations) / sec
		fcRate += float64(len(p.forecastMs)) / sec
		forecastMs = append(forecastMs, p.forecastMs...)
		absErr += p.absErr
		absPers += p.absPersistence
		ops += p.observations + len(p.forecastMs)
	}
	r.samples = len(forecastMs)
	r.metrics["observations_per_s"] = obsRate
	r.metrics["forecasts_per_s"] = fcRate
	r.metrics["forecast_p50_ms"] = percentile(forecastMs, 0.50)
	r.metrics["forecast_p90_ms"] = percentile(forecastMs, 0.90)
	r.metrics["forecast_mae_ratio"] = absErr / absPers
	r.metrics["cpu_ms_per_op"] = out.cpuSeconds * 1e3 / float64(ops)
}

// pipelineTotals sums /pipeline/stats over the nodes.
func (s *stack) pipelineTotals() (ingest.ShardStats, ingest.CoalesceStats, error) {
	var tot ingest.ShardStats
	var co ingest.CoalesceStats
	c := s.clients[0]
	for _, u := range c.urls {
		var st ingest.Stats
		if err := c.do(http.MethodGet, u+"/pipeline/stats", nil, &st); err != nil {
			return tot, co, err
		}
		tot.Enqueued += st.Totals.Enqueued
		tot.Processed += st.Totals.Processed
		tot.Dropped += st.Totals.Dropped
		tot.Errors += st.Totals.Errors
		tot.JournalErrors += st.Totals.JournalErrors
		co.CacheHits += st.Coalesce.CacheHits
	}
	return tot, co, nil
}

// verify is the correctness check run on the servers that were just
// measured: every observation sent was applied, nothing errored or was
// dropped, no forecast was served from a stale cache entry, with a WAL
// under fsync=always the journal holds exactly the accepted events, and
// (bits) the oracle sensors replay bit-identically in-process.
func (s *stack) verify(r *result, bits bool) {
	sent := 0
	for _, c := range s.clients {
		sent += c.sent
		r.rounds += c.round - s.sc.spec.warmup
	}
	if bits {
		defer checkOracle(r, s.sc.spec, s)
	}
	tot, co, err := s.pipelineTotals()
	if err != nil {
		r.problem("reading /pipeline/stats: %v", err)
		return
	}
	if tot.Processed != uint64(sent) {
		r.problem("pipeline processed %d observations, %d were sent", tot.Processed, sent)
	}
	if tot.Errors != 0 || tot.JournalErrors != 0 || tot.Dropped != 0 {
		r.problem("pipeline errors=%d journal_errors=%d dropped=%d, want 0", tot.Errors, tot.JournalErrors, tot.Dropped)
	}
	if co.CacheHits != 0 {
		r.problem("ingest.stale_hits=%d: forecasts were served from before their observation", co.CacheHits)
	}
	if s.sc.spec.fsync == "always" {
		m, err := s.scrape()
		if err != nil {
			r.problem("reading /metrics: %v", err)
			return
		}
		if got, want := m.sum("smiler_wal_appends_total"), float64(sent+s.sc.spec.sensors); got != want {
			r.problem("smiler_wal_appends_total=%v, want %v (observations + registrations)", got, want)
		}
	}
}

// runWorkload is one untraced run: set up setupRepeats times, measure
// the last set-up, check it, and report the eight end-to-end metrics.
func runWorkload(e *env, sp spec, o runOpts) (*result, error) {
	r := &result{workload: sp.name, metrics: make(map[string]float64), correct: true, storage: e.storage}
	n := o.setups
	if n == 0 {
		n = setupRepeats
	}
	var st *stack
	var setups []float64
	for i := 0; i < n; i++ {
		if st != nil {
			st.cl.stop()
		}
		var sec float64
		var err error
		if st, sec, err = setUp(e, sp, o); err != nil {
			return nil, err
		}
		setups = append(setups, sec)
	}
	defer st.cl.stop()
	r.metrics["setup_s"] = median(setups)

	out, err := st.steady(o, false)
	if err != nil {
		return nil, err
	}
	r.foldSteady(out)
	rss, err := rssPeakMB(st.cl.pids())
	if err != nil {
		return nil, err
	}
	r.metrics["rss_peak_mb"] = rss
	st.verify(r, sp.bitExact && !o.noBarrier)
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			r.problem("%s = %v is not a positive finite number", name, v)
		}
	}
	return r, nil
}

// print writes the human-readable block: every metric by name with its
// unit.
func (r *result) print(defs []metricDef) {
	fmt.Printf("%s: closed loop, %d clients on %d connections, storage=%s, steady rounds=%d, forecast samples n=%d\n",
		r.workload, clients, clients, r.storage, r.rounds, r.samples)
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Printf("  %s/%s %.6g %s\n", r.workload, d.Name, v, d.Unit)
		}
	}
	fmt.Printf("  %s/ops_attempted %d count\n  %s/ops_failed %d count\n", r.workload, r.attempted, r.workload, r.failed)
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Printf("  %s/PROBLEM %s\n", r.workload, p)
	}
}
