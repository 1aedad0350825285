package bench

import (
	"strings"
	"testing"

	"smiler/internal/datasets"
	"smiler/internal/gp"
	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// tinySpec keeps runtimes suitable for unit tests.
func tinySpec() DatasetSpec {
	return DatasetSpec{
		Name: "ROAD",
		Gen:  datasets.Config{Kind: datasets.Road, Sensors: 1, Days: 5, Seed: 1},
		Warm: 620, TestSteps: 8,
	}
}

func tinyCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Load(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSuiteSpecsLoad(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScaleMedium} {
		specs := Suite(scale)
		if len(specs) != 3 {
			t.Fatalf("suite should have 3 datasets, got %d", len(specs))
		}
		for _, s := range specs {
			if err := s.Gen.Validate(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
	// Small suite must actually load (medium is exercised by the CLI).
	for _, s := range Suite(ScaleSmall) {
		c, err := Load(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(c.Series) == 0 {
			t.Fatalf("%s: empty corpus", s.Name)
		}
		for _, z := range c.Series {
			if len(z) <= s.Warm {
				t.Fatalf("%s: series shorter than warm prefix", s.Name)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	bad := tinySpec()
	bad.Warm = 0
	if _, err := Load(bad); err == nil {
		t.Fatal("warm=0 should fail")
	}
	bad = tinySpec()
	bad.Warm = 10_000
	if _, err := Load(bad); err == nil {
		t.Fatal("warm beyond series should fail")
	}
	bad = tinySpec()
	bad.Gen.Sensors = 0
	if _, err := Load(bad); err == nil {
		t.Fatal("invalid generator should fail")
	}
}

func TestRunFig7ShapesHold(t *testing.T) {
	c := tinyCorpus(t)
	methods := []SearchMethod{MethodSMiLerIdx, MethodFastGPUScan, MethodGPUScan, MethodFastCPUScan}
	rows, err := RunFig7(c, []int{16}, 3, methods)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(methods) {
		t.Fatalf("got %d rows", len(rows))
	}
	sim := map[SearchMethod]float64{}
	for _, r := range rows {
		if r.WallSec <= 0 {
			t.Fatalf("%s: non-positive wall time", r.Method)
		}
		sim[r.Method] = r.SimSec
	}
	// The headline shape: the index beats the banded scan, which beats
	// the unbanded scan, in simulated GPU time.
	if !(sim[MethodSMiLerIdx] < sim[MethodFastGPUScan]) {
		t.Fatalf("SMiLer-Idx (%v) should beat FastGPUScan (%v) in sim time",
			sim[MethodSMiLerIdx], sim[MethodFastGPUScan])
	}
	if !(sim[MethodFastGPUScan] < sim[MethodGPUScan]) {
		t.Fatalf("FastGPUScan (%v) should beat GPUScan (%v) in sim time",
			sim[MethodFastGPUScan], sim[MethodGPUScan])
	}
	out := FormatFig7(rows)
	if !strings.Contains(out, "SMiLer-Idx") {
		t.Fatal("format output incomplete")
	}
	if _, err := RunFig7(c, []int{4}, 0, methods); err == nil {
		t.Fatal("steps=0 should fail")
	}
}

func TestRunFig8IndexBeatsDirect(t *testing.T) {
	c := tinyCorpus(t)
	rows, err := RunFig8(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var idx, dir Fig8Row
	for _, r := range rows {
		if r.Method == MethodSMiLerIdx {
			idx = r
		} else {
			dir = r
		}
	}
	if !(idx.SimSec < dir.SimSec) {
		t.Fatalf("index LBen (%v) should beat direct (%v) in sim time", idx.SimSec, dir.SimSec)
	}
	if !strings.Contains(FormatFig8(rows), "SMiLer-Dir") {
		t.Fatal("format output incomplete")
	}
}

func TestRunTable3EnhancedBoundFiltersBest(t *testing.T) {
	c := tinyCorpus(t)
	rows, err := RunTable3(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	un := map[index.LBMode]float64{}
	for _, r := range rows {
		un[r.Bound] = r.Unfiltered
	}
	if un[index.LBModeEn] > un[index.LBModeEQ] || un[index.LBModeEn] > un[index.LBModeEC] {
		t.Fatalf("LBen should leave the fewest unfiltered candidates: %v", un)
	}
	if !strings.Contains(FormatTable3(rows), "LBen") {
		t.Fatal("format output incomplete")
	}
}

func TestRunAccuracySmoke(t *testing.T) {
	c := tinyCorpus(t)
	hs := []int{1, 3}
	methods := []string{MSMiLerAR, MLazyKNN, MSgdRR, MOnlineRR, MSegHW}
	rows, timings, err := RunAccuracy(c, methods, hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(methods)*len(hs) {
		t.Fatalf("got %d accuracy rows", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 || r.MAE < 0 {
			t.Fatalf("malformed row %+v", r)
		}
	}
	if len(timings) != len(methods) {
		t.Fatalf("got %d timing rows", len(timings))
	}
	out := FormatAccuracy("Fig. 10", rows)
	if !strings.Contains(out, "MNLPD") || !strings.Contains(out, "LazyKNN") {
		t.Fatal("format output incomplete")
	}
	if !strings.Contains(FormatTable4(timings), "predict(ms)") {
		t.Fatal("table 4 format incomplete")
	}
	if _, _, err := RunAccuracy(c, []string{"nope"}, hs); err == nil {
		t.Fatal("unknown method should fail")
	}
	if _, _, err := RunAccuracy(c, methods, nil); err == nil {
		t.Fatal("empty horizons should fail")
	}
}

func TestRunAccuracyGPVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("GP variants are slow")
	}
	c := tinyCorpus(t)
	rows, _, err := RunAccuracy(c, []string{MSMiLerGP, MSMiLerNEGP, MSMiLerNSGP}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestRunFig12(t *testing.T) {
	c := tinyCorpus(t)
	rows, err := RunFig12Time(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SearchSec <= 0 || r.PredictSec <= 0 {
			t.Fatalf("non-positive phase time: %+v", r)
		}
	}
	per, maxS, err := Fig12Capacity(c, gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if per <= 0 || maxS <= 0 {
		t.Fatalf("capacity %d/%d", per, maxS)
	}
	if !strings.Contains(FormatFig12(rows, per, maxS), "max") {
		t.Fatal("format output incomplete")
	}
	if _, err := RunFig12Time(c, 0); err == nil {
		t.Fatal("steps=0 should fail")
	}
}

func TestRunFig13SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	c := tinyCorpus(t)
	before := gp.SnapshotStats()
	rows, err := RunFig13(c, []int{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The accuracy axis of the trade-off is deterministic: more active
	// points fit better, and the reference line came from optimized GP
	// fits. (The time axis is sub-millisecond wall-clock here; PSGP
	// training has no operation counter to stand in for it.)
	if rows[1].PSGPMae >= rows[0].PSGPMae {
		t.Fatalf("PSGP error should fall with active points: %v at %d vs %v at %d",
			rows[0].PSGPMae, rows[0].ActivePoints, rows[1].PSGPMae, rows[1].ActivePoints)
	}
	if evals := gp.SnapshotStats().OptimizeEvals - before.OptimizeEvals; evals == 0 || rows[0].SMiLerGPMae <= 0 {
		t.Fatalf("SMiLer-GP reference line: %d optimizer evaluations, MAE %v", evals, rows[0].SMiLerGPMae)
	}
	if !strings.Contains(FormatFig13(rows), "active") {
		t.Fatal("format output incomplete")
	}
	if _, err := RunFig13(c, nil); err == nil {
		t.Fatal("empty sweep should fail")
	}
}

func TestAblationContinuousReuse(t *testing.T) {
	c := tinyCorpus(t)
	reuse, rebuild, err := AblationContinuousReuse(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated device cycles, not wall-clock: five sub-millisecond
	// steps do not time reproducibly, the cost model does.
	if reuse.Cycles <= 0 || reuse.Cycles >= rebuild.Cycles {
		t.Fatalf("incremental update (%v cycles) should beat full rebuild (%v cycles)", reuse.Cycles, rebuild.Cycles)
	}
	if _, _, err := AblationContinuousReuse(c, 0); err == nil {
		t.Fatal("steps=0 should fail")
	}
}

func TestRunSearchProfile(t *testing.T) {
	c := tinyCorpus(t)
	rows, err := RunSearchProfile(c, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var idx, scanP SearchProfile
	for _, r := range rows {
		if r.Method == MethodSMiLerIdx {
			idx = r
		} else {
			scanP = r
		}
	}
	// The full scan must move far more global-memory traffic than the
	// index (it streams every candidate segment through DTW).
	if idx.Profile.GlobalCycles >= scanP.Profile.GlobalCycles {
		t.Fatalf("index global traffic (%v) should be < scan (%v)",
			idx.Profile.GlobalCycles, scanP.Profile.GlobalCycles)
	}
	if idx.Profile.Launches == 0 || scanP.Profile.Blocks == 0 {
		t.Fatal("profile counters missing")
	}
	if !strings.Contains(FormatSearchProfile(rows), "global-mem") {
		t.Fatal("format output incomplete")
	}
	if _, err := RunSearchProfile(c, 0, 16); err == nil {
		t.Fatal("steps=0 should fail")
	}
}
