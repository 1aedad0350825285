package smiler

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

// TestTieringLRUOrder: the least recently used sensor is the one
// spilled; touching a sensor protects it.
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

	// Observing t1 faults it in and evicts the now-LRU t0.
	if err := sys.Observe("t1", 51); err != nil {
		t.Fatal(err)
	}
	if !sys.tier.isCold("t0") || sys.tier.isCold("t1") {
		t.Fatalf("fault-in of t1 must evict t0: cold=%v", sys.tier.coldIDs())
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
// path) serves cold sensors straight from their spill envelope without
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
}

// TestTieringEvictionDropsTraces: a sensor's trace ring goes with it
// when it is evicted, so forecasting a population far above the hot cap
// keeps at most cap × DefaultTraceCapacity traces, and a cold sensor
// none.
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
}

// TestTieringSpillDirWipedAtBoot: stale spill files from a previous
// run are unreachable garbage and must be removed by New.
func TestTieringSpillDirWipedAtBoot(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.spill")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tieredConfig(1)
	cfg.SpillDir = dir
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spill file survived boot")
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
				if f != want[id] {
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
