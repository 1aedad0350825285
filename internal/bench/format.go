package bench

import (
	"fmt"
	"sort"
	"strings"
)

// table renders rows of cells into an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }

// FormatFig7 renders Fig. 7 rows: time per step (log-scale in the
// paper) for each method and k.
func FormatFig7(rows []Fig7Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, string(r.Method), fmt.Sprint(r.K),
			f6(r.WallSec), f6(r.SimSec),
		})
	}
	return "Fig. 7 — Suffix kNN Search time per continuous step (all sensors)\n" +
		table([]string{"dataset", "method", "k", "wall(s)", "gpu-sim(s)"}, out)
}

// FormatFig8 renders Fig. 8 rows: LBen production time.
func FormatFig8(rows []Fig8Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Dataset, string(r.Method), f6(r.WallSec), f6(r.SimSec)})
	}
	return "Fig. 8 — LBen computation time per step (all sensors)\n" +
		table([]string{"dataset", "method", "wall(s)", "gpu-sim(s)"}, out)
}

// FormatTable3 renders Table 3: verification cost and unfiltered
// candidates per lower bound.
func FormatTable3(rows []Table3Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Bound.String(), f3(r.VerifyWallSec), f6(r.VerifySimSec),
			fmt.Sprintf("%.0f", r.Unfiltered),
		})
	}
	return "Table 3 — Effect of the enhanced lower bound LBen\n" +
		table([]string{"dataset", "bound", "verify-wall(s)", "verify-sim(s)", "unfiltered/query"}, out)
}

// FormatAccuracy renders Figs. 9/10/11 rows as MAE and MNLPD series
// over the horizon, one block per metric.
func FormatAccuracy(title string, rows []AccuracyRow) string {
	methods := orderedMethods(rows)
	hs := orderedHorizons(rows)
	cell := make(map[string]AccuracyRow, len(rows))
	for _, r := range rows {
		cell[r.Method+"/"+fmt.Sprint(r.H)] = r
	}
	render := func(metric string, get func(AccuracyRow) float64) string {
		header := append([]string{"method \\ h"}, intStrings(hs)...)
		var out [][]string
		for _, m := range methods {
			row := []string{m}
			for _, h := range hs {
				row = append(row, f3(get(cell[m+"/"+fmt.Sprint(h)])))
			}
			out = append(out, row)
		}
		return metric + "\n" + table(header, out)
	}
	return title + "\n" +
		render("MAE", func(r AccuracyRow) float64 { return r.MAE }) + "\n" +
		render("MNLPD", func(r AccuracyRow) float64 { return r.MNLPD }) + "\n" +
		render("COVERAGE95 (0.95 = calibrated)", func(r AccuracyRow) float64 { return r.Coverage95 })
}

// FormatTable4 renders Table 4 rows.
func FormatTable4(rows []TimingRow) string {
	var out [][]string
	for _, r := range rows {
		train := "-"
		if r.TrainSec > 0 {
			train = f3(r.TrainSec)
		}
		out = append(out, []string{r.Dataset, r.Method, train, f3(r.PredictMs)})
	}
	return "Table 4 — Running time comparison\n" +
		table([]string{"dataset", "method", "train(s)", "predict(ms)"}, out)
}

// FormatFig12 renders the Fig. 12 time split and capacity.
func FormatFig12(rows []Fig12Row, perSensorBytes, maxSensors int64) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Method, f6(r.SearchSec), f6(r.PredictSec), f6(r.SearchSec + r.PredictSec),
		})
	}
	s := "Fig. 12(a,b) — per-step time of all sensors (search vs prediction)\n" +
		table([]string{"dataset", "method", "search(s)", "predict(s)", "total(s)"}, out)
	s += fmt.Sprintf("\nFig. 12(c) — capacity: %d bytes/sensor -> max %d sensors per GPU\n",
		perSensorBytes, maxSensors)
	return s
}

// FormatFig13 renders the PSGP active-point sweep.
func FormatFig13(rows []Fig13Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, fmt.Sprint(r.ActivePoints), f3(r.TrainSecPer),
			f3(r.PSGPMae), f3(r.SMiLerGPMae),
		})
	}
	return "Fig. 13 — PSGP active points: training time vs MAE (SMiLer-GP reference)\n" +
		table([]string{"dataset", "active", "train(s)/sensor", "PSGP MAE", "SMiLer-GP MAE"}, out)
}

func orderedMethods(rows []AccuracyRow) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Method] {
			seen[r.Method] = true
			out = append(out, r.Method)
		}
	}
	return out
}

func orderedHorizons(rows []AccuracyRow) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if !seen[r.H] {
			seen[r.H] = true
			out = append(out, r.H)
		}
	}
	sort.Ints(out)
	return out
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// FormatSearchProfile renders the cost-model breakdown.
func FormatSearchProfile(rows []SearchProfile) string {
	var out [][]string
	for _, r := range rows {
		p := r.Profile
		out = append(out, []string{
			r.Dataset, string(r.Method),
			fmt.Sprintf("%.0f", p.ComputeCycles),
			fmt.Sprintf("%.0f", p.GlobalCycles),
			fmt.Sprintf("%.0f", p.LaunchCycles),
			fmt.Sprint(p.Launches),
			fmt.Sprint(p.Blocks),
		})
	}
	return "Search cost-model breakdown (simulated cycles)\n" +
		table([]string{"dataset", "method", "compute", "global-mem", "launch", "launches", "blocks"}, out)
}
