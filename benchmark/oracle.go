package main

import (
	"fmt"
	"math"

	"smiler"
)

// oracleConfig is the smiler.Config the server builds from a workload's
// flags (cmd/smiler-server leaves everything else at DefaultConfig).
// Tiering and WAL do not change served values, so they are left out.
func oracleConfig(sp spec) smiler.Config {
	cfg := smiler.DefaultConfig()
	if sp.predictor == "ar" {
		cfg.Predictor = smiler.PredictorAR
	}
	cfg.DisableMetrics = true
	return cfg
}

// checkOracle replays each oracle sensor's observe/forecast log through
// an in-process smiler.System and requires the served means and
// variances to be bit-identical — the house invariant, end to end over
// HTTP, JSON, the ingest queue and (on the cluster) the forward hop.
func checkOracle(r *result, sp spec, st *stack) {
	sys, err := smiler.New(oracleConfig(sp))
	if err != nil {
		r.problem("oracle: %v", err)
		return
	}
	defer sys.Close()
	for i := 0; i < sp.oracles; i++ {
		id := sensorID(i)
		if err := sys.AddSensor(id, st.sc.sensors[i].history); err != nil {
			r.problem("oracle: %v", err)
			return
		}
		forecasts := 0
		for n, op := range *st.oracle[i] {
			if op.h == 0 {
				if err := sys.Observe(id, op.value); err != nil {
					r.problem("oracle %s op %d: %v", id, n, err)
					return
				}
				continue
			}
			f, err := sys.Predict(id, op.h)
			if err != nil {
				r.problem("oracle %s op %d: %v", id, n, err)
				return
			}
			forecasts++
			if math.Float64bits(f.Mean) != math.Float64bits(op.value) ||
				math.Float64bits(f.Variance) != math.Float64bits(op.variance) {
				r.problem("oracle %s op %d (h=%d): served mean=%v variance=%v, in-process %v / %v",
					id, n, op.h, op.value, op.variance, f.Mean, f.Variance)
				return
			}
		}
		if forecasts == 0 {
			r.problem("oracle %s saw no forecast", id)
		}
	}
}

// describeOracle is printed once per run so the reader knows what the
// correctness verdict covered.
func describeOracle(sp spec) string {
	if !sp.bitExact {
		return "oracle: bit-identity skipped (two clients share one eviction order); counters checked"
	}
	return fmt.Sprintf("oracle: %d sensors replayed in-process, bit-identical means and variances required", sp.oracles)
}
