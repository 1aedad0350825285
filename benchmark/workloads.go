package main

import (
	"fmt"
	"math/rand"

	"smiler/internal/datasets"
)

// clients is the number of closed-loop client goroutines, each with its
// own connection: one per core of the 2-core box the sizes were tuned
// on. It is part of the workload definition, not a knob.
const clients = 2

// horizons is the cycle every sensor's forecasts walk through: its n-th
// forecast asks for horizons[n%6]. Each horizon is held for two
// forecasts on purpose: a forecast that wrongly reads pre-observe state
// in the second of them finds the previous answer still in the
// coalescer cache, so a broken drain barrier shows up as a non-zero
// ingest.stale_hits instead of passing silently.
var horizons = [...]int{1, 1, 3, 3, 6, 6}

func horizonFor(n int) int { return horizons[n%len(horizons)] }

// spec is one workload: which stack runs and what traffic it gets. The
// names are fixed; add a workload by appending a spec, never by
// renaming or re-sizing an existing one (see README).
type spec struct {
	name string
	why  string

	predictor string // -predictor
	nodes     int    // server processes (3 = replicated cluster)
	fsync     string // "" = no WAL, else the -fsync policy
	maxHot    int    // -max-hot-sensors (0 = untiered)

	sensors int // population
	history int // points registered per sensor

	// perRound is how many of its own sensors a client observes each
	// round: 0 = all of them, otherwise a window that rotates through
	// them, or with zipf > 0 that many distinct Zipf(s) draws.
	perRound int
	zipf     float64
	// bulk is the observations per POST /observations (0 = one POST
	// /sensors/{id}/observe per observation).
	bulk int
	// Every forecastEvery-th round ends in barrier + forecast sweep over
	// forecasts sensors observed that round (0 = all observed), taken
	// from a window that rotates through the first forecastPool of them
	// (0 = through all). A small pool keeps a bulk-ingest workload's
	// forecasts on sensors whose GP hyperparameters are warm, so reads
	// stay a minor share of its CPU.
	forecastEvery int
	forecasts     int
	forecastPool  int

	warmup  int // warm-up rounds, part of setup_s
	oracles int // sensors replayed in-process for bit-identity
	// bitExact is false only where two clients share one eviction
	// order, which makes the served bits depend on their interleaving.
	bitExact bool
}

var workloads = []spec{
	{
		name:      "continuous_gp",
		why:       "the paper's scenario: one GP node, 64 sensors, every observation followed by a forecast; index search and GP fitting do the work",
		predictor: "gp", nodes: 1,
		sensors: 64, history: 2048,
		perRound: 8, forecastEvery: 1,
		warmup: 4, oracles: 8, bitExact: true,
	},
	{
		name:      "ingest_durable",
		why:       "writes beside reads: 1600 sensors bulk-ingested through WAL fsync=always on tmpfs; decode, queue, journal and index.Advance do the work",
		predictor: "gp", nodes: 1, fsync: "always",
		sensors: 1600, history: 256,
		bulk: 100, forecastEvery: 1, forecasts: 2, forecastPool: 8,
		warmup: 4, oracles: 4, bitExact: true,
	},
	{
		name:      "tiered_zipf",
		why:       "working set ten times the hot cap, Zipf(1.1) access: fault-in, eviction and index rebuild do the work, RSS is what tiering buys",
		predictor: "gp", nodes: 1, maxHot: 100,
		sensors: 1000, history: 256,
		perRound: 50, zipf: 1.1, bulk: 50, forecastEvery: 6, forecasts: 8,
		warmup: 12, oracles: 2, bitExact: false,
	},
	{
		name:      "cluster_replicated",
		why:       "continuous_gp's traffic shape on three replicated nodes with WAL fsync=interval, requests round-robin so two thirds take a forward hop",
		predictor: "gp", nodes: 3, fsync: "interval",
		sensors: 64, history: 1024,
		perRound: 8, forecastEvery: 1,
		warmup: 4, oracles: 8, bitExact: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func sensorID(i int) string { return fmt.Sprintf("s%04d", i) }

// owner partitions the sensors over the clients: every sensor is
// driven by exactly one client, which is what makes its observe →
// forecast order (and so the served bits) independent of scheduling.
func owner(sensor int) int { return sensor % clients }

// sensorData is one sensor's generated series: the registered history
// and the lazily drawn continuation the owning client streams.
type sensorData struct {
	history []float64
	stream  *datasets.Stream
	future  []float64 // values drawn after the history, in order
	pos     int       // next index of future to observe
	asked   int       // forecasts scripted so far (walks the horizon cycle)
}

// value returns future[i], drawing ahead as needed (forecast scoring
// looks up to six steps past the last observation).
func (d *sensorData) value(i int) float64 {
	for len(d.future) <= i {
		d.future = append(d.future, d.stream.Next())
	}
	return d.future[i]
}

// forecastOp is one scripted forecast.
type forecastOp struct {
	sensor, h int
}

// roundOps is what one client does in one round: observe these sensors'
// next values, then (after the drain barrier) forecast those.
type roundOps struct {
	observe   []int
	forecasts []forecastOp
}

// script is everything a run sends, as a function of (spec, seed)
// alone. Each client consumes its own rng round by round, so any prefix
// of rounds is the same on every run with that seed.
type script struct {
	spec    spec
	sensors []*sensorData
	own     [clients][]int
	rng     [clients]*rand.Rand
	zipf    [clients]*rand.Zipf
}

func newScript(sp spec, seed int64) (*script, error) {
	s := &script{spec: sp, sensors: make([]*sensorData, sp.sensors)}
	for i := range s.sensors {
		st, err := datasets.NewStream(datasets.Road, seed, i)
		if err != nil {
			return nil, err
		}
		s.sensors[i] = &sensorData{history: st.Take(sp.history), stream: st}
		s.own[owner(i)] = append(s.own[owner(i)], i)
	}
	for c := range s.rng {
		s.rng[c] = rand.New(rand.NewSource(seed*1000003 + int64(c)))
		if sp.zipf > 0 {
			s.zipf[c] = rand.NewZipf(s.rng[c], sp.zipf, 1, uint64(len(s.own[c])-1))
		}
	}
	return s, nil
}

// round returns client c's operations for the given round. Rounds must
// be requested in order, once each (the Zipf draws and the per-sensor
// horizon cycles advance).
func (s *script) round(c, round int) roundOps {
	own := s.own[c]
	var ops roundOps
	switch {
	case s.spec.zipf > 0:
		seen := make(map[int]bool, s.spec.perRound)
		for len(ops.observe) < s.spec.perRound {
			id := own[s.zipf[c].Uint64()]
			if !seen[id] {
				seen[id] = true
				ops.observe = append(ops.observe, id)
			}
		}
	case s.spec.perRound > 0:
		for i := 0; i < s.spec.perRound; i++ {
			ops.observe = append(ops.observe, own[(round*s.spec.perRound+i)%len(own)])
		}
	default:
		ops.observe = own
	}
	if (round+1)%s.spec.forecastEvery != 0 {
		return ops
	}
	// A rotating window over sensors observed this round, so every
	// forecast follows a fresh observation of its sensor (one latency
	// mode, no legitimate cache hits) and the whole pool gets its turn.
	pool := ops.observe
	if s.spec.forecastPool > 0 && s.spec.forecastPool < len(pool) {
		pool = pool[:s.spec.forecastPool]
	}
	n := s.spec.forecasts
	if n == 0 || n > len(pool) {
		n = len(pool)
	}
	sweep := round / s.spec.forecastEvery
	for i := 0; i < n; i++ {
		id := pool[(sweep*n+i)%len(pool)]
		d := s.sensors[id]
		ops.forecasts = append(ops.forecasts, forecastOp{sensor: id, h: horizonFor(d.asked)})
		d.asked++
	}
	return ops
}
