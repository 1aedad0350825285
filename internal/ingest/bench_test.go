package ingest

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"smiler"
)

// benchConfig keeps per-observation cost representative but small (AR
// cells, short segments) so the benchmark measures ingestion overhead
// and parallelism, not GP fitting.
func benchConfig() smiler.Config {
	cfg := smiler.DefaultConfig()
	cfg.Rho = 3
	cfg.Omega = 8
	cfg.ELV = []int{16, 24}
	cfg.EKV = []int{4}
	cfg.Predictor = smiler.PredictorAR
	return cfg
}

func newBenchSystem(b *testing.B, sensors int) (*smiler.System, []string) {
	return newBenchSystemMetrics(b, sensors, false)
}

func newBenchSystemMetrics(b *testing.B, sensors int, disableMetrics bool) (*smiler.System, []string) {
	b.Helper()
	cfg := benchConfig()
	cfg.DisableMetrics = disableMetrics
	sys, err := smiler.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	ids := make([]string, sensors)
	hist := make([]float64, 200)
	for i := range hist {
		hist[i] = 20 + 5*math.Sin(2*math.Pi*float64(i)/24)
	}
	for s := range ids {
		ids[s] = fmt.Sprintf("bench-%02d", s)
		if err := sys.AddSensor(ids[s], hist); err != nil {
			b.Fatal(err)
		}
	}
	return sys, ids
}

// BenchmarkIngestThroughput compares direct synchronous Observe
// against bulk ingest through the pipeline at 1, 4 and 16 shards, all
// over the same 16-sensor system. The pipeline cases send their bulk
// chunks from GOMAXPROCS concurrent callers, as concurrent HTTP
// handlers do: shards are what lets those callers apply in parallel.
// The recorded shape lives in EXPERIMENTS.md; regenerate with:
//
//	go test ./internal/ingest -bench Throughput -run '^$'
func BenchmarkIngestThroughput(b *testing.B) {
	const sensors = 16
	const bulkChunk = 64

	// metrics=on vs metrics=off isolates the instrumentation overhead
	// (the nil-instrument no-op sink); recorded in EXPERIMENTS.md.
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"direct/metrics=on", false},
		{"direct/metrics=off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, ids := newBenchSystemMetrics(b, sensors, tc.disable)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Observe(ids[i%sensors], 20+float64(i%7)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
		})
	}

	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("pipeline/shards=%d", shards), func(b *testing.B) {
			sys, ids := newBenchSystem(b, sensors)
			p, err := New(sys, Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			var caller atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := int(caller.Add(1)) // callers start on different sensors
				batch := make([]Observation, 0, bulkChunk)
				for i := 0; pb.Next(); i++ {
					batch = append(batch, Observation{Sensor: ids[(c+i)%sensors], Value: 20 + float64(i%7)})
					if len(batch) == bulkChunk {
						if res := p.ObserveBulk(batch); len(res.Failed) > 0 {
							b.Error(res.Failed[0].Error)
							return
						}
						batch = batch[:0]
					}
				}
				if res := p.ObserveBulk(batch); len(res.Failed) > 0 {
					b.Error(res.Failed[0].Error)
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
		})
	}
}
