package smiler

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestCheckpointStableUnderPredictWorkers: the Prediction-Step worker
// pool, GOMAXPROCS wide, must not leak into persisted state — a system
// driven with concurrent cell fits (multi-horizon predictions included)
// checkpoints byte-identically to a twin driven at GOMAXPROCS 1, where
// the pool is the sequential path.
func TestCheckpointStableUnderPredictWorkers(t *testing.T) {
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := smallConfig()
		cfg.Predictor = PredictorGP
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		rng := rand.New(rand.NewSource(31))
		all := noisySeasonal(rng, 430, 5, 50)
		if err := sys.AddSensor("s", all[:400]); err != nil {
			t.Fatal(err)
		}
		for i := 400; i < 415; i++ {
			if _, err := sys.PredictHorizons("s", []int{1, 3, 6}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Observe("s", all[i]); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := sys.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	par := run(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("checkpoints diverge between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(seq), len(par))
	}
}
