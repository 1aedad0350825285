package smiler

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"smiler/internal/fault"
	"smiler/internal/memsys"
	"smiler/internal/obs"
)

// tieredConfig returns smallConfig with the hot-sensor cap set.
func tieredConfig(max int) Config {
	cfg := smallConfig()
	cfg.MaxHotSensors = max
	return cfg
}

// addSeeded registers n sensors ("t0".."tn-1") with deterministic
// per-sensor histories on sys; the same seed yields the same sensors
// on a reference system.
func addSeeded(t *testing.T, sys *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		if err := sys.AddSensor(fmt.Sprintf("t%d", i), noisySeasonal(rng, 400, 5+float64(i), 50)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTieringValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxHotSensors = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative MaxHotSensors must fail")
	}
}

// TestTieringSpillFaultRoundTrip: with a cap below the population,
// registration spills LRU sensors, every accessor still reaches every
// sensor, and a faulted-in sensor forecasts bit-identically to an
// untiered reference.
func TestTieringSpillFaultRoundTrip(t *testing.T) {
	sys, err := New(tieredConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, sys, 4)
	addSeeded(t, ref, 4)

	st := sys.Tiering()
	if st.Hot != 2 || st.Cold != 2 || st.Evictions != 2 {
		t.Fatalf("tier stats after 4 adds at cap 2: %+v", st)
	}
	ids := sys.Sensors()
	if len(ids) != 4 {
		t.Fatalf("Sensors() = %v, want all 4 (hot and cold)", ids)
	}
	for _, id := range ids {
		if !sys.HasSensor(id) {
			t.Fatalf("HasSensor(%s) = false", id)
		}
	}

	// t0 and t1 are the LRU pair, so they were spilled first.
	for _, id := range []string{"t0", "t1"} {
		if !sys.tier.isCold(id) {
			t.Fatalf("%s should be cold, tier = %+v", id, sys.Tiering())
		}
	}

	// Every sensor — cold ones fault in transparently — must forecast
	// bit-identically to the untiered reference.
	for _, id := range ids {
		got, err := sys.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: tiered forecast %+v != reference %+v", id, got, want)
		}
	}
	st = sys.Tiering()
	if st.Faults < 2 {
		t.Fatalf("predicting cold sensors must fault them in, stats %+v", st)
	}
	if st.Hot != 2 || st.Cold != 2 {
		t.Fatalf("cap must hold after faults: %+v", st)
	}

	// Histories survive the spill/fault cycles bit-for-bit.
	for _, id := range ids {
		gh, err := sys.History(id)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := ref.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(gh) != len(wh) {
			t.Fatalf("%s: history %d points, want %d", id, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i] != wh[i] {
				t.Fatalf("%s point %d: %v != %v", id, i, gh[i], wh[i])
			}
		}
	}
}

// TestTieringLazyMatchesEager is the oracle for cold observes. A
// tiered system whose cold observes append to tail files must be bit
// for bit the twin that faults every observed sensor in at once
// (HistoryLen after each observe, which is what every observe did
// before tails): in every forecast, every single-sensor export and the
// final checkpoint, over a seeded schedule of finite and NaN observes,
// forecasts at mixed horizons, saves, and removes with re-adds. The
// lazy system is never more resident than the twin. The never-spilled
// subtests hold both to a twin that never spills at all.
func TestTieringLazyMatchesEager(t *testing.T) {
	t.Run("never-spilled", testTieringMatchesNeverSpilled)
	for _, kind := range []PredictorKind{PredictorAR, PredictorGP} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := tieredConfig(3)
			cfg.Predictor = kind
			steps := 600
			if kind == PredictorGP {
				steps = 150
			}
			if testing.Short() {
				steps /= 3
			}
			lazy, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			eager, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eager.Close()
			const sensors = 7
			addSeeded(t, lazy, sensors)
			addSeeded(t, eager, sensors)
			both := func(op func(sys *System) error) {
				t.Helper()
				for _, sys := range []*System{lazy, eager} {
					if err := op(sys); err != nil {
						t.Fatal(err)
					}
				}
			}
			saved := func(save func(sys *System, w *bytes.Buffer) error) {
				t.Helper()
				var a, b bytes.Buffer
				both(func(sys *System) error {
					if sys == lazy {
						return save(sys, &a)
					}
					return save(sys, &b)
				})
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("lazy bytes (%d) differ from eager (%d)", a.Len(), b.Len())
				}
			}

			rng := rand.New(rand.NewSource(43))
			for step := 0; step < steps; step++ {
				id := fmt.Sprintf("t%d", rng.Intn(sensors))
				switch r := rng.Intn(20); {
				case r < 11, r == 11: // finite observe; one in twelve is NaN
					v := 50 + 5*rng.NormFloat64()
					if r == 11 {
						v = math.NaN()
					}
					both(func(sys *System) error { return sys.Observe(id, v) })
					if _, err := eager.HistoryLen(id); err != nil {
						t.Fatal(err)
					}
				case r < 17: // forecast at a random non-empty set of horizons
					var hs []int
					for h := 1; h <= 3; h++ {
						if rng.Intn(2) == 0 || (h == 3 && hs == nil) {
							hs = append(hs, h)
						}
					}
					got, err := lazy.PredictHorizons(id, hs)
					if err != nil {
						t.Fatal(err)
					}
					want, err := eager.PredictHorizons(id, hs)
					if err != nil {
						t.Fatal(err)
					}
					for _, h := range hs {
						g, w := got[h], want[h]
						if math.Float64bits(g.Mean) != math.Float64bits(w.Mean) ||
							math.Float64bits(g.Variance) != math.Float64bits(w.Variance) {
							t.Fatalf("step %d %s h=%d: lazy %+v, eager %+v", step, id, h, g, w)
						}
					}
				case r == 17:
					saved(func(sys *System, w *bytes.Buffer) error { return sys.SaveSensorTo(w, id) })
				case r == 18:
					saved(func(sys *System, w *bytes.Buffer) error { return sys.SaveTo(w) })
				default: // remove, then register afresh
					both(func(sys *System) error { return sys.RemoveSensor(id) })
					for _, path := range []string{lazy.tier.spillPath(id), lazy.tier.tailPath(id)} {
						if _, err := os.Stat(path); !os.IsNotExist(err) {
							t.Fatalf("step %d: %s outlived RemoveSensor(%s)", step, filepath.Base(path), id)
						}
					}
					hist := noisySeasonal(rand.New(rand.NewSource(int64(step))), 400, 4, 50)
					both(func(sys *System) error { return sys.AddSensor(id, hist) })
				}
				if l, e := lazy.Tiering().Hot, eager.Tiering().Hot; l > e {
					t.Fatalf("step %d: lazy holds %d sensors hot, eager %d", step, l, e)
				}
			}
			saved(func(sys *System, w *bytes.Buffer) error { return sys.SaveTo(w) })
			ls, es := lazy.Tiering(), eager.Tiering()
			if ls.TailAppends == 0 || ls.Faults >= es.Faults {
				t.Fatalf("the schedule must take tail appends in place of faults: lazy %+v, eager %+v", ls, es)
			}
		})
	}
}

// searchWork is the per-search work a System's metrics count, the
// quantities a sensor that spills must spend exactly as one that never
// did.
var searchWork = []string{
	"smiler_knn_candidates_total", "smiler_knn_unfiltered_total", "smiler_knn_sealed_total",
	"smiler_knn_cascade_pruned_total", "smiler_dtw_columns_total", "smiler_index_builds_total",
}

func readWork(sys *System) []uint64 {
	out := make([]uint64, len(searchWork))
	for i, name := range searchWork {
		out[i] = sys.Metrics().Counter(name, "").Value()
	}
	return out
}

// testTieringMatchesNeverSpilled holds a sensor that is evicted between
// every step (MaxHotSensors 1, two sensors taking turns) to an untiered
// twin that never spills: a fault-in resumes the index — its window
// level and threshold seeds travel in the spill file — so each search
// counts the candidates, verifications, sealed and cascade-pruned
// survivors, DTW columns and index builds the twin's does, step for
// step. Forecasts are held bit for bit where a read faults the sensor
// in before each observe, so it never has a tail. On the schedule where
// observes append to the cold sensor's tail, only the counts are: the
// tail fold drops the pending set unscored (ROADMAP item 2), so the
// ensemble weights, and with them the answers, part from the twin's.
// Both schedules include a gap long enough that the twin rebuilds too.
func testTieringMatchesNeverSpilled(t *testing.T) {
	for _, kind := range []PredictorKind{PredictorAR, PredictorGP} {
		for _, tails := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tails=%t", kind, tails), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Predictor = kind
				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer twin.Close()
				cfg.MaxHotSensors = 1
				tiered, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer tiered.Close()
				addSeeded(t, twin, 2)
				addSeeded(t, tiered, 2)
				steps := 40
				if kind == PredictorGP {
					steps = 16
				}
				rng := rand.New(rand.NewSource(44))
				for step := 0; step < steps; step++ {
					for i := 0; i < 2; i++ {
						id := fmt.Sprintf("t%d", i)
						if !tails {
							if _, err := tiered.HistoryLen(id); err != nil { // fault in: no tail
								t.Fatal(err)
							}
						}
						observes := 1 + rng.Intn(3)
						if step == steps/2 {
							observes = 35 // m + ρ ≥ nSW: both sides rebuild
						}
						for range observes {
							v := 50 + 5*rng.NormFloat64()
							for _, sys := range []*System{twin, tiered} {
								if err := sys.Observe(id, v); err != nil {
									t.Fatal(err)
								}
							}
						}
						hs := []int{1 + rng.Intn(3)}
						if rng.Intn(2) == 0 {
							hs = append(hs, 4)
						}
						tw0, ti0 := readWork(twin), readWork(tiered)
						want, err := twin.PredictHorizons(id, hs)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tiered.PredictHorizons(id, hs)
						if err != nil {
							t.Fatal(err)
						}
						tw1, ti1 := readWork(twin), readWork(tiered)
						for j, name := range searchWork {
							if g, w := ti1[j]-ti0[j], tw1[j]-tw0[j]; g != w {
								t.Fatalf("step %d %s: %s moved by %d, never-spilled twin by %d", step, id, name, g, w)
							}
						}
						for _, h := range hs {
							g, w := got[h], want[h]
							if !tails && (math.Float64bits(g.Mean) != math.Float64bits(w.Mean) ||
								math.Float64bits(g.Variance) != math.Float64bits(w.Variance)) {
								t.Fatalf("step %d %s h=%d: spilled %+v, never spilled %+v", step, id, h, g, w)
							}
						}
					}
				}
				st := tiered.Tiering()
				if st.Faults < uint64(2*steps-1) || (st.TailAppends > 0) != tails {
					t.Fatalf("the schedule must fault each sensor in every step (tails %t): %+v", tails, st)
				}
				if g, w := readWork(tiered), readWork(twin); !slices.Equal(g, w) {
					t.Fatalf("work %v, never-spilled twin %v", g, w)
				}
			})
		}
	}
}

// TestTieringLRUOrder: the least recently used sensor is the one
// spilled; touching a sensor protects it, and observing a cold one
// counts as a touch without faulting it in.
func TestTieringLRUOrder(t *testing.T) {
	sys, err := New(tieredConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addSeeded(t, sys, 2) // t0, t1 hot; t1 most recent

	if _, err := sys.Predict("t0", 1); err != nil { // t0 now most recent
		t.Fatal(err)
	}
	addSeeded2 := func(i int) {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		if err := sys.AddSensor(fmt.Sprintf("t%d", i), noisySeasonal(rng, 400, 5+float64(i), 50)); err != nil {
			t.Fatal(err)
		}
	}
	addSeeded2(2) // must evict t1, not t0
	if !sys.tier.isCold("t1") || sys.tier.isCold("t0") {
		t.Fatalf("LRU must evict t1 (t0 was touched): %+v cold=%v", sys.Tiering(), sys.tier.coldIDs())
	}

	// Observing t1 appends to its tail, so t1 stays cold, yet it is now
	// among the two most recently used: the LRU t0 is evicted exactly as
	// a fault-in of t1 would have evicted it.
	if err := sys.Observe("t1", 51); err != nil {
		t.Fatal(err)
	}
	if !sys.tier.isCold("t1") {
		t.Fatalf("observing cold t1 must leave it cold: %+v", sys.Tiering())
	}
	if !sys.tier.isCold("t0") {
		t.Fatalf("observing t1 must evict the LRU t0: cold=%v", sys.tier.coldIDs())
	}
	if st := sys.Tiering(); st.TailAppends != 1 || st.Hot != 1 {
		t.Fatalf("one cold observe: %+v, want 1 tail append and t2 alone hot", st)
	}
}

// TestTieringRemoveAndDuplicate: cold sensors can be removed (their
// spill file goes with them) and re-added; adding a cold id is a
// duplicate error.
func TestTieringRemoveAndDuplicate(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredConfig(1)
	cfg.SpillDir = dir
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addSeeded(t, sys, 2) // t0 cold, t1 hot

	if err := sys.AddSensor("t0", noisySeasonal(rand.New(rand.NewSource(1)), 400, 5, 50)); err == nil {
		t.Fatal("adding a cold id must be a duplicate error")
	}
	spills, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(spills) != 1 {
		t.Fatalf("expected 1 spill file, found %v", spills)
	}
	if err := sys.RemoveSensor("t0"); err != nil {
		t.Fatal(err)
	}
	if sys.HasSensor("t0") {
		t.Fatal("removed cold sensor still visible")
	}
	spills, _ = filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(spills) != 0 {
		t.Fatalf("spill file must be deleted with its sensor, found %v", spills)
	}
	if _, err := sys.Predict("t0", 1); err == nil {
		t.Fatal("predicting a removed cold sensor must fail")
	}
	// Re-adding after removal works (and spills t1).
	addSeeded(t, sys, 1)
	if !sys.HasSensor("t0") {
		t.Fatal("re-added sensor missing")
	}
}

// TestTieringCheckpointByteIdentity: SaveTo on a tiered node — cold
// sensors folded in from their spill envelopes — must produce the
// exact bytes an untiered node with the same state produces.
func TestTieringCheckpointByteIdentity(t *testing.T) {
	tiered, err := New(tieredConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, tiered, 5)
	addSeeded(t, ref, 5)
	// Drift ensemble weights on both through the same observations
	// (cold sensors fault in and spill back out on the tiered node).
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		for j := 0; j < 3; j++ {
			v := 50 + float64(i) + float64(j)
			if err := tiered.Observe(id, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.Observe(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var a, b bytes.Buffer
	if err := tiered.SaveTo(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("tiered checkpoint (%d bytes) differs from untiered (%d bytes)", a.Len(), b.Len())
	}

	// And the tiered checkpoint loads into a working untiered system.
	restored, err := Load(&a, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if ids := restored.Sensors(); len(ids) != 5 {
		t.Fatalf("restored %v", ids)
	}
}

// TestTieringSaveSensorToCold: single-sensor export (the migration
// path) serves cold sensors from their spill and tail files without
// faulting them in.
func TestTieringSaveSensorToCold(t *testing.T) {
	sys, err := New(tieredConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, sys, 2) // t0 cold
	addSeeded(t, ref, 2)

	before := sys.Tiering().Faults
	var a, b bytes.Buffer
	if err := sys.SaveSensorTo(&a, "t0"); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveSensorTo(&b, "t0"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cold-sensor export differs from untiered export")
	}
	if sys.Tiering().Faults != before {
		t.Fatal("SaveSensorTo must not fault the sensor in")
	}
	if !sys.tier.isCold("t0") {
		t.Fatal("t0 must stay cold after export")
	}

	// Observations of the cold t0 go to its tail; the export folds them
	// in and still equals the untiered export, without a fault-in.
	for _, v := range []float64{51, 47.5, 53.25} {
		if err := sys.Observe("t0", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.Observe("t0", v); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := sys.tier.tailLen("t0"); n != 3 {
		t.Fatalf("t0 tail holds %d values, want 3", n)
	}
	a.Reset()
	b.Reset()
	if err := sys.SaveSensorTo(&a, "t0"); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveSensorTo(&b, "t0"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export of a cold sensor with a tail differs from untiered export")
	}
	if st := sys.Tiering(); st.Faults != before || st.TailAppends != 3 || !sys.tier.isCold("t0") {
		t.Fatalf("observing and exporting cold t0 must not fault it in: %+v", st)
	}
}

// TestTieringEvictionDropsTraces: a sensor's trace ring goes with it
// when it is evicted, so forecasting a population far above the hot cap
// keeps at most cap × DefaultTraceCapacity traces, and a cold sensor
// none. Each round observes every sensor first, so every read computes
// (a repeated read in one step is served without a trace).
func TestTieringEvictionDropsTraces(t *testing.T) {
	const hot, sensors = 2, 6
	sys, err := New(tieredConfig(hot))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addSeeded(t, sys, sensors)
	for round := 0; round <= obs.DefaultTraceCapacity; round++ {
		for i := 0; i < sensors; i++ {
			if err := sys.Observe(fmt.Sprintf("t%d", i), 50); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < sensors; i++ {
			if _, err := sys.Predict(fmt.Sprintf("t%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 0
	for _, id := range sys.Sensors() {
		n := len(sys.obs.traces.Last(id, 0))
		if n > 0 && sys.tier.isCold(id) {
			t.Fatalf("cold sensor %s keeps %d traces", id, n)
		}
		total += n
	}
	if total == 0 || total > hot*obs.DefaultTraceCapacity {
		t.Fatalf("%d traces stored for %d sensors at hot cap %d, want 1..%d",
			total, sensors, hot, hot*obs.DefaultTraceCapacity)
	}
}

// TestTieringDamagedSpillStaysCold: a truncated or bit-flipped spill
// file fails the next access with an error naming the sensor, leaves
// the sensor cold, and a retry succeeds once the file is good again.
func TestTieringDamagedSpillStaysCold(t *testing.T) {
	cfg := tieredConfig(1)
	cfg.SpillDir = t.TempDir()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, sys, 2) // t0 cold
	addSeeded(t, ref, 2)

	path := sys.tier.spillPath("t0")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	for name, bad := range map[string][]byte{"truncated": good[:len(good)-3], "bit-flipped": flipped} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := sys.Predict("t0", 1)
		if err == nil || !strings.Contains(err.Error(), `"t0"`) {
			t.Fatalf("%s spill: Predict error %v, want one naming \"t0\"", name, err)
		}
		if !sys.tier.isCold("t0") || sys.Tiering().Hot != 1 {
			t.Fatalf("%s spill: t0 must stay cold, tier %+v", name, sys.Tiering())
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Predict("t0", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict("t0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("retry after repair: %+v, reference %+v", got, want)
	}

	// A tail whose length is not 8 bytes × its recorded count fails the
	// fault-in the same way and leaves the sensor cold.
	for _, v := range []float64{49, 52} {
		if err := sys.Observe("t1", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.Observe("t1", v); err != nil {
			t.Fatal(err)
		}
	}
	tail := sys.tier.tailPath("t1")
	good, err = os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 16 {
		t.Fatalf("tail of two observations holds %d bytes", len(good))
	}
	for name, bad := range map[string][]byte{"short": good[:13], "long": append(good[:16:16], good[:8]...)} {
		if err := os.WriteFile(tail, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := sys.Predict("t1", 1)
		if err == nil || !strings.Contains(err.Error(), `"t1"`) {
			t.Fatalf("%s tail: Predict error %v, want one naming \"t1\"", name, err)
		}
		if !sys.tier.isCold("t1") {
			t.Fatalf("%s tail: t1 must stay cold, tier %+v", name, sys.Tiering())
		}
	}
	if err := os.WriteFile(tail, good, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = sys.Predict("t1", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err = ref.Predict("t1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tail retry after repair: %+v, reference %+v", got, want)
	}
}

// TestTieringTailAppendFailure: an append that fails after writing
// restores the tail's previous length and returns the error, so the
// sensor's next fault-in sees only the observations that succeeded.
func TestTieringTailAppendFailure(t *testing.T) {
	sys, err := New(tieredConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, sys, 2) // t0 cold
	addSeeded(t, ref, 2)
	observe := func(v float64) error {
		if err := ref.Observe("t0", v); err != nil {
			t.Fatal(err)
		}
		return sys.Observe("t0", v)
	}
	if err := observe(48); err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(1)
	in.Set(fault.PointTierTailAppend, fault.Rule{Kind: fault.KindError, After: 1, Once: true})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)
	if err := sys.Observe("t0", 99); err == nil || !strings.Contains(err.Error(), `"t0"`) {
		t.Fatalf("failed append: error %v, want one naming \"t0\"", err)
	}
	fault.Disarm()
	if fi, err := os.Stat(sys.tier.tailPath("t0")); err != nil || fi.Size() != 8 {
		t.Fatalf("after a failed append the tail must hold its one value again: %v, %v", fi, err)
	}
	if n, cold := sys.tier.tailLen("t0"); n != 1 || !cold {
		t.Fatalf("failed append: tail length %d, cold %v; want 1, true", n, cold)
	}

	if err := observe(51); err != nil {
		t.Fatal(err)
	}
	got, err := sys.History("t0")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.History("t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("history %d points, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: %v, reference %v", i, got[i], want[i])
		}
	}
}

// TestTieringSpillDirWipedAtBoot: stale spill and tail files from a
// previous run are unreachable garbage and must be removed by New.
func TestTieringSpillDirWipedAtBoot(t *testing.T) {
	dir := t.TempDir()
	stale := []string{filepath.Join(dir, "deadbeef.spill"), filepath.Join(dir, "deadbeef.tail")}
	for _, path := range stale {
		if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tieredConfig(1)
	cfg.SpillDir = dir
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, path := range stale {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("stale %s survived boot", filepath.Base(path))
		}
	}
}

// TestTieringConcurrentChurn is the PR's -race stress: concurrent
// predictions across a population larger than the hot cap — every call
// racing fault-in/eviction cycles — interleaved with full checkpoints
// and single-sensor exports (the migration path), with pooling
// enabled. Every forecast must be bit-identical to an untiered,
// quiescent reference.
func TestTieringConcurrentChurn(t *testing.T) {
	const sensors = 6
	sys, err := New(tieredConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	addSeeded(t, sys, sensors)
	addSeeded(t, ref, sensors)

	want := make(map[string]Forecast, sensors)
	for _, id := range ref.Sensors() {
		f, err := ref.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = f
	}

	iters := 8
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("t%d", rng.Intn(sensors))
				f, err := sys.Predict(id, 1)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					return
				}
				// A read of a sensor that stayed hot since its last one is
				// served that answer again, marked Reused.
				if f.Reused = false; f != want[id] {
					errCh <- fmt.Errorf("%s: forecast %+v != reference %+v", id, f, want[id])
					return
				}
			}
		}(g)
	}
	// Checkpoints and migration exports race the prediction churn.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var buf bytes.Buffer
			if err := sys.SaveTo(&buf); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters*sensors; i++ {
			var buf bytes.Buffer
			if err := sys.SaveSensorTo(&buf, fmt.Sprintf("t%d", i%sensors)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := sys.Tiering(); st.Faults == 0 || st.Evictions == 0 {
		t.Fatalf("churn must exercise the tier: %+v", st)
	}
	// After the churn the system still checkpoints byte-identically to
	// the reference (no observations ran, state is unchanged).
	var a, b bytes.Buffer
	if err := sys.SaveTo(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("post-churn checkpoint differs from reference")
	}
}

// TestMinHistoryRacesFaultIn: MinHistory reads the config without a
// lock, so nothing may write the config after New. With a hot cap of 1,
// two sensors alternating forecasts fault each other in on every call;
// restoring a sensor used to flip cfg.Normalize off and on around the
// re-index. Run under -race.
func TestMinHistoryRacesFaultIn(t *testing.T) {
	sys, err := New(tieredConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addSeeded(t, sys, 2)
	want := sys.MinHistory()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := sys.MinHistory(); got != want {
				t.Errorf("MinHistory = %d mid-churn, want %d", got, want)
				return
			}
		}
	}()
	for i := 0; i < 12; i++ {
		if _, err := sys.Predict(fmt.Sprintf("t%d", i%2), 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if st := sys.Tiering(); st.Faults == 0 {
		t.Fatalf("alternating forecasts must fault sensors in: %+v", st)
	}
}

// TestSystemPooledMatchesUnpooled extends the PR 3 determinism
// contract through the full System surface: forecasts and checkpoint
// bytes with the slab pool enabled must be bit-identical to a run with
// pooling disabled.
func TestSystemPooledMatchesUnpooled(t *testing.T) {
	was := memsys.Enabled()
	defer memsys.SetEnabled(was)

	run := func(pooled bool) ([]Forecast, []byte) {
		memsys.SetEnabled(pooled)
		sys, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		addSeeded(t, sys, 3)
		var out []Forecast
		for step := 0; step < 10; step++ {
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("t%d", i)
				f, err := sys.Predict(id, 1)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, f)
				if err := sys.Observe(id, 50+float64(step)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := sys.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		return out, buf.Bytes()
	}

	wantF, wantCP := run(false)
	gotF, gotCP := run(true)
	for i := range wantF {
		if gotF[i] != wantF[i] {
			t.Fatalf("forecast %d: pooled %+v != unpooled %+v", i, gotF[i], wantF[i])
		}
	}
	if !bytes.Equal(gotCP, wantCP) {
		t.Fatal("pooled checkpoint bytes differ from unpooled")
	}
}
