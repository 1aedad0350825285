package main

import (
	"fmt"
	"math"
	"os"
)

// runAA measures the benchmark's own repeatability: two interleaved
// sets (A, B) of k full-suite runs of the same code, run i of either
// set on seed+i — what the driver does with a parent and a change. Per
// workload/metric it prints each set's median and quartiles and the
// single-run (max−min)/median, and fails when the two medians differ by
// more than the metric's bound in either direction.
func runAA(e *env, specs []spec, k int, o runOpts) int {
	if k < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 runs per set")
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	code := 0
	for i := 0; i < k; i++ {
		for set := range sets {
			ro := o
			ro.seed = o.seed + int64(i)
			for _, sp := range specs {
				r, err := runWorkload(e, sp, ro)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
					return 1
				}
				if !r.correct || r.failed > 0 {
					r.print(endToEnd)
					code = 1
				}
				for _, d := range endToEnd {
					kk := key{sp.name, d.Name}
					sets[set][kk] = append(sets[set][kk], r.metrics[d.Name])
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s done\n", i+1, k, 'A'+set, sp.name)
			}
		}
	}
	fmt.Printf("A/A: 2 sets x %d runs, seeds %d..%d, closed loop, %d clients, storage=%s\n", k, o.seed, o.seed+int64(k)-1, clients, e.storage)
	fmt.Printf("%-19s %-19s %-5s %11s %11s %11s %7s | %11s %11s %11s %7s | %7s %6s\n",
		"workload", "metric", "unit", "A.median", "A.q1", "A.q3", "A.range", "B.median", "B.q1", "B.q3", "B.range", "B vs A", "bound")
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := sets[0][key{sp.name, d.Name}], sets[1][key{sp.name, d.Name}]
			ma, mb := median(a), median(b)
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			spread := func(xs []float64, m float64) float64 {
				return (percentile(xs, 1) - percentile(xs, 0)) / m
			}
			worse := (mb - ma) / ma // positive = B worse, for "lower is better"
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-19s %-19s %-5s %11.5g %11.5g %11.5g %6.1f%% | %11.5g %11.5g %11.5g %6.1f%% | %+6.1f%% %5.0f%%%s\n",
				sp.name, d.Name, d.Unit, ma, qa1, qa3, 100*spread(a, ma), mb, qb1, qb3, 100*spread(b, mb), 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
