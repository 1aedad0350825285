package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"smiler/internal/ingest"
)

// hash digests the histories and the first rounds of every client's
// script: "same seed, same inputs" as one comparable value.
func (s *script) hash(rounds int) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, d := range s.sensors {
		for _, v := range d.history {
			put(math.Float64bits(v))
		}
	}
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			ops := s.round(c, r)
			for _, id := range ops.observe {
				d := s.sensors[id]
				put(uint64(id))
				put(math.Float64bits(d.value(d.pos)))
				d.pos++
			}
			for _, f := range ops.forecasts {
				put(uint64(f.sensor)<<8 | uint64(f.h))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range workloads {
		hash := func(seed int64) string {
			s, err := newScript(sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			return s.hash(30)
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: same seed gave script hashes %s and %s", sp.name, a, b)
		}
		if hash(7) == hash(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", sp.name)
		}
	}
}

func TestOwnershipIsAPartition(t *testing.T) {
	for _, sp := range workloads {
		s, err := newScript(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for c, own := range s.own {
			for _, id := range own {
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: sensor %d owned by clients %d and %d", sp.name, id, prev, c)
				}
				seen[id] = c
			}
		}
		if len(seen) != sp.sensors {
			t.Errorf("%s: %d of %d sensors have an owner", sp.name, len(seen), sp.sensors)
		}
		// Every scripted operation stays inside its client's share, and
		// every forecast follows an observation of that sensor that round.
		for c := 0; c < clients; c++ {
			for r := 0; r < 40; r++ {
				ops := s.round(c, r)
				observed := make(map[int]bool)
				for _, id := range ops.observe {
					if seen[id] != c {
						t.Fatalf("%s: client %d observes sensor %d of client %d", sp.name, c, id, seen[id])
					}
					if observed[id] {
						t.Fatalf("%s: client %d round %d observes sensor %d twice", sp.name, c, r, id)
					}
					observed[id] = true
				}
				for _, f := range ops.forecasts {
					if !observed[f.sensor] {
						t.Fatalf("%s: client %d round %d forecasts unobserved sensor %d", sp.name, c, r, f.sensor)
					}
				}
			}
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 values = %v, %v, want 1, 4", q1, q3)
	}
}

func TestProcParsers(t *testing.T) {
	// comm may hold spaces and parentheses; utime=1234 stime=66 ticks.
	stat := "4242 (smiler) server)) S 1 4242 4242 0 -1 4194560 9999 0 3 0 1234 66 0 0 20 0 9 0 123456 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	if got, err := parseStatCPU(stat); err != nil || got != 13.0 {
		t.Errorf("parseStatCPU = %v, %v, want 13s", got, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tsmiler-server\nVmPeak:\t  900000 kB\nVmHWM:\t   29696 kB\nVmRSS:\t   20000 kB\n"
	if got, err := parseStatusHWM(status); err != nil || got != 29 {
		t.Errorf("parseStatusHWM = %v, %v, want 29 MB", got, err)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("parseStatusHWM accepted a status without VmHWM")
	}
}

func TestBarrierPredicate(t *testing.T) {
	cases := []struct {
		name, body string
		want       bool
	}{
		{"idle", `{"per_shard":[{"shard":0,"queue_depth":0,"enqueued":5,"processed":5},{"shard":1,"queue_depth":0,"enqueued":3,"processed":3}],"totals":{"queue_depth":0,"enqueued":8,"processed":8}}`, true},
		{"queued", `{"per_shard":[{"shard":0,"queue_depth":2,"enqueued":7,"processed":5}],"totals":{"queue_depth":2,"enqueued":7,"processed":5}}`, false},
		// Dequeued into a micro-batch but not applied yet: the queue is
		// empty and the observation is still invisible to forecasts.
		{"in flight", `{"per_shard":[{"shard":0,"queue_depth":0,"enqueued":6,"processed":5}],"totals":{"queue_depth":0,"enqueued":6,"processed":5}}`, false},
		{"one shard behind", `{"per_shard":[{"shard":0,"queue_depth":0,"enqueued":4,"processed":5},{"shard":1,"queue_depth":0,"enqueued":4,"processed":3}],"totals":{"queue_depth":0,"enqueued":8,"processed":8}}`, false},
	}
	for _, c := range cases {
		var st ingest.Stats
		if err := json.Unmarshal([]byte(c.body), &st); err != nil {
			t.Fatal(err)
		}
		if got := drained(st); got != c.want {
			t.Errorf("%s: drained = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPromParser(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nsmiler_wal_syncs_total 41\n" +
		"smiler_predict_phase_seconds_sum{phase=\"search\"} 0.5\n" +
		"smiler_predict_phase_seconds_sum{phase=\"verify\"} 0.25\n" +
		"smiler_ingest_processed_total{shard=\"0\"} 3\nsmiler_ingest_processed_total{shard=\"1\"} 4\n"
	acc := make(promSample)
	for i := 0; i < 2; i++ { // two nodes sum
		if err := parseProm(strings.NewReader(text), acc); err != nil {
			t.Fatal(err)
		}
	}
	if got := acc.sum("smiler_ingest_processed_total"); got != 14 {
		t.Errorf("processed = %v, want 14", got)
	}
	if got := acc.sum("smiler_predict_phase_seconds_sum", `phase="search"`); got != 1 {
		t.Errorf("search sum = %v, want 1", got)
	}
	if got := acc.sum("smiler_wal_syncs"); got != 0 {
		t.Errorf("a family prefix matched: %v", got)
	}
	if err := parseProm(strings.NewReader("novalue\n"), acc); err == nil {
		t.Error("parseProm accepted a malformed line")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver
// reads, equal to the tables the program reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
}

// smokeSpec shrinks a workload to something a test can run in a second
// or two against a real child server.
func smokeSpec(t *testing.T, predictor string, sensors int) spec {
	sp, ok := findSpec("continuous_gp")
	if !ok {
		t.Fatal("continuous_gp is gone")
	}
	sp.predictor, sp.sensors, sp.perRound, sp.history, sp.warmup, sp.oracles = predictor, sensors, 0, 256, 1, sensors
	return sp
}

func testEnv(t *testing.T) *env {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stopAllClusters()
		e.close()
	})
	return e
}

func TestSmokeAgainstRealServer(t *testing.T) {
	e := testEnv(t)
	r, err := runWorkload(e, smokeSpec(t, "gp", 2), runOpts{seed: 3, rounds: 3, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != 0 {
		t.Fatalf("smoke run incorrect: failed=%d problems=%v", r.failed, r.problems)
	}
	// 2 clients x 3 rounds x (1 observe + 1 forecast).
	if r.attempted != 12 || r.samples != 6 {
		t.Errorf("attempted=%d samples=%d, want 12 and 6", r.attempted, r.samples)
	}
	for _, d := range endToEnd {
		if v := r.metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.Name, v)
		}
	}
}

// TestDroppingTheBarrierIsCaught proves the stale-read check can fail:
// without the drain barrier a forecast sent right after its sensor's
// observe races the shard worker, and some are answered from the cache
// entry of the round before.
func TestDroppingTheBarrierIsCaught(t *testing.T) {
	e := testEnv(t)
	r, err := runWorkload(e, smokeSpec(t, "ar", 2), runOpts{seed: 3, rounds: 100, setups: 1, noBarrier: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.correct {
		t.Fatal("100 rounds without the drain barrier passed the correctness check")
	}
	found := false
	for _, p := range r.problems {
		t.Log(p)
		found = found || strings.Contains(p, "ingest.stale_hits")
	}
	if !found {
		t.Errorf("run failed, but not on ingest.stale_hits: %v", r.problems)
	}
}
