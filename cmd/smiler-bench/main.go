// Command smiler-bench regenerates the paper's evaluation tables and
// figures on the synthetic corpora.
//
// Usage:
//
//	smiler-bench -exp fig7            # one experiment
//	smiler-bench -exp all -scale small
//	smiler-bench -exp fig9 -dataset ROAD -hs 1,5,15,30
//
// Experiments: table3, fig7, fig8, fig9, fig10, fig11, table4, fig12,
// fig13, ablation, all. Scales: small (seconds), medium (minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"smiler/internal/bench"
	"smiler/internal/gpusim"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table3|fig7|fig8|fig9|fig10|fig11|table4|fig12|fig13|ablation|distance|downsample|profile|all")
		scale   = flag.String("scale", "small", "corpus scale: small|medium")
		dataset = flag.String("dataset", "", "restrict to one dataset (ROAD|MALL|NET)")
		steps   = flag.Int("steps", 0, "override continuous steps for search experiments")
		ksFlag  = flag.String("ks", "16,32,64,128", "comma-separated k values for fig7")
		hsFlag  = flag.String("hs", "1,5,10,15,20,25,30", "comma-separated horizons for accuracy experiments")

		sensors   = flag.Int("sensors", 0, "override number of distinct sensors per dataset")
		days      = flag.Int("days", 0, "override days of data per sensor")
		warm      = flag.Int("warm", 0, "override warm (history) prefix length")
		testSteps = flag.Int("teststeps", 0, "override continuous test steps for accuracy experiments")
		outDir    = flag.String("out", "", "also write plottable .tsv series into this directory")
	)
	flag.Parse()
	ov := override{sensors: *sensors, days: *days, warm: *warm, testSteps: *testSteps, outDir: *outDir}
	if err := run(*exp, *scale, *dataset, *steps, *ksFlag, *hsFlag, ov); err != nil {
		fmt.Fprintln(os.Stderr, "smiler-bench:", err)
		os.Exit(1)
	}
}

// override carries optional spec overrides from flags (0 = keep).
type override struct {
	sensors, days, warm, testSteps int
	outDir                         string
}

// saveSeries writes a TSV series when -out is set.
func (o override) saveSeries(dataset, name string, header []string, rows [][]string) error {
	if o.outDir == "" {
		return nil
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s_%s.tsv", strings.ToLower(dataset), name))
	if err := bench.SaveTSV(path, header, rows); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n\n", path)
	return nil
}

func (o override) apply(spec bench.DatasetSpec) bench.DatasetSpec {
	if o.sensors > 0 {
		spec.Gen.Sensors = o.sensors
		spec.Gen.Duplicates = 0
	}
	if o.days > 0 {
		spec.Gen.Days = o.days
	}
	if o.warm > 0 {
		spec.Warm = o.warm
	}
	if o.testSteps > 0 {
		spec.TestSteps = o.testSteps
	}
	return spec
}

func run(exp, scaleName, dataset string, steps int, ksFlag, hsFlag string, ov override) error {
	var sc bench.Scale
	switch scaleName {
	case "small":
		sc = bench.ScaleSmall
	case "medium":
		sc = bench.ScaleMedium
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	ks, err := parseInts(ksFlag)
	if err != nil {
		return fmt.Errorf("bad -ks: %w", err)
	}
	hs, err := parseInts(hsFlag)
	if err != nil {
		return fmt.Errorf("bad -hs: %w", err)
	}
	if steps == 0 {
		steps = 10
		if sc == bench.ScaleMedium {
			steps = 100
		}
	}

	var corpora []*bench.Corpus
	for _, spec := range bench.Suite(sc) {
		if dataset != "" && !strings.EqualFold(dataset, spec.Name) {
			continue
		}
		spec = ov.apply(spec)
		c, err := bench.Load(spec)
		if err != nil {
			return fmt.Errorf("load %s: %w", spec.Name, err)
		}
		corpora = append(corpora, c)
	}
	if len(corpora) == 0 {
		return fmt.Errorf("no datasets selected (dataset=%q)", dataset)
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	for _, c := range corpora {
		fmt.Printf("=== dataset %s: %d sensors, %d points each, warm %d ===\n\n",
			c.Spec.Name, len(c.Series), len(c.Series[0]), c.Spec.Warm)

		if want("table3") {
			ran = true
			rows, err := bench.RunTable3(c, steps)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatTable3(rows))
			h3, r3 := bench.Table3TSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "table3", h3, r3); err != nil {
				return err
			}
		}
		if want("fig7") {
			ran = true
			methods := []bench.SearchMethod{
				bench.MethodSMiLerIdx, bench.MethodSMiLerDir,
				bench.MethodFastGPUScan, bench.MethodGPUScan, bench.MethodFastCPUScan,
			}
			rows, err := bench.RunFig7(c, ks, steps, methods)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatFig7(rows))
			h7, r7 := bench.Fig7TSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "fig7", h7, r7); err != nil {
				return err
			}
		}
		if want("fig8") {
			ran = true
			rows, err := bench.RunFig8(c, steps)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatFig8(rows))
		}
		if want("fig9") {
			ran = true
			rows, timings, err := bench.RunAccuracy(c, bench.OfflineMethods(), hs)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatAccuracy("Fig. 9 — offline learning models", rows))
			fmt.Println(bench.FormatTable4(timings))
			h9, r9 := bench.AccuracyTSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "fig9", h9, r9); err != nil {
				return err
			}
		}
		if want("fig10") {
			ran = true
			rows, timings, err := bench.RunAccuracy(c, bench.OnlineMethods(), hs)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatAccuracy("Fig. 10 — online learning models", rows))
			fmt.Println(bench.FormatTable4(timings))
			h10, r10 := bench.AccuracyTSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "fig10", h10, r10); err != nil {
				return err
			}
		}
		if want("fig11") {
			ran = true
			rows, _, err := bench.RunAccuracy(c, bench.AblationMethods(), hs)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatAccuracy("Fig. 11 — adaptive auto-tuning ablation", rows))
			h11, r11 := bench.AccuracyTSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "fig11", h11, r11); err != nil {
				return err
			}
		}
		if want("table4") {
			ran = true
			_, timings, err := bench.RunAccuracy(c, bench.AllMethods(), []int{1})
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatTable4(timings))
		}
		if want("fig12") {
			ran = true
			rows, err := bench.RunFig12Time(c, steps)
			if err != nil {
				return err
			}
			per, maxS, err := bench.Fig12Capacity(c, gpusim.DefaultConfig())
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatFig12(rows, per, maxS))
		}
		if want("fig13") {
			ran = true
			rows, err := bench.RunFig13(c, []int{4, 8, 16, 32, 64, 128})
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatFig13(rows))
			h13, r13 := bench.Fig13TSV(rows)
			if err := ov.saveSeries(c.Spec.Name, "fig13", h13, r13); err != nil {
				return err
			}
		}
		if want("ablation") {
			ran = true
			reuse, rebuild, err := bench.AblationContinuousReuse(c, steps)
			if err != nil {
				return err
			}
			fmt.Printf("Ablation — continuous window-level reuse (Remark 1), %d steps:\n", steps)
			fmt.Printf("  incremental Advance: %.4fs   rebuild-from-scratch: %.4fs   speedup: %.1f×\n",
				reuse.Sec, rebuild.Sec, rebuild.Sec/reuse.Sec)
			fmt.Printf("  simulated device cycles: %.0f vs %.0f (%.1f×)\n\n",
				reuse.Cycles, rebuild.Cycles, rebuild.Cycles/reuse.Cycles)
		}
		if want("distance") {
			ran = true
			rows, err := bench.RunDistanceMeasureAblation(c, steps, 32, 64, 1)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatDistanceAblation(rows))
		}
		if want("profile") {
			ran = true
			rows, err := bench.RunSearchProfile(c, steps, 32)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatSearchProfile(rows))
		}
		if want("downsample") {
			ran = true
			rows, err := bench.RunDownsampleTradeoff(c, []float64{1.0, 0.5, 0.25, 0.1}, steps)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatDownsample(rows))
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
