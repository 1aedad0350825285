// Command benchmark is the repository's benchmark: it builds
// cmd/smiler-server, spawns real server processes on loopback, drives
// them over HTTP from two closed-loop clients, checks what they served
// and prints every metric by name with its unit. BENCHMARK.json at the
// repository root is its contract; README.md explains the design.
//
//	go run -C benchmark . -seed 1                       # all four workloads
//	go run -C benchmark . -workload continuous_gp -trace 1
//	go run -C benchmark . -aa 5                         # A/A repeatability table
//
// The driver runs it through run.sh as
// `--workload W --seed N --seconds S --trace 0|1` and reads the last
// line of standard output, one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(defs []metricDef) resultLine {
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		} else {
			out.Correct = false
		}
	}
	return out
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "steady-phase duration per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of this many full-suite runs")
	rounds := flag.Int("rounds", 0, "fixed steady rounds per client instead of -seconds (identical work on every run)")
	flag.Parse()
	os.Exit(run(*workload, *aa, *trace == 1, runOpts{seed: *seed, seconds: *seconds, rounds: *rounds}))
}

func run(workload string, aa int, trace bool, o runOpts) int {
	specs := workloads
	if workload != "" {
		sp, ok := findSpec(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
			return 2
		}
		specs = []spec{sp}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close()
	installSignalCleanup(e)
	if e.storage == "disk" {
		fmt.Println("storage=disk: /dev/shm is unusable, so ingest_durable and tiered_zipf now include device noise")
	}
	if aa > 0 {
		return runAA(e, specs, aa, o)
	}

	code := 0
	for _, sp := range specs {
		var r *result
		defs := endToEnd
		if trace {
			defs = perLayer
			r, err = runTraced(e, sp, o)
		} else {
			r, err = runWorkload(e, sp, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		r.print(defs)
		fmt.Println("  " + describeOracle(sp))
		line := r.line(defs)
		if !line.Correct || r.failed > 0 {
			code = 1
		}
		b, _ := json.Marshal(line)
		fmt.Println(string(b))
	}
	return code
}
