package smiler

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(1))
	all := noisySeasonal(rng, 460, 10, 100)
	if err := sys.AddSensor("a", all[:400]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSensor("b", noisySeasonal(rng, 400, 3, 0)); err != nil {
		t.Fatal(err)
	}
	// Run some steps so the ensemble weights drift away from uniform.
	for i := 400; i < 430; i++ {
		if _, err := sys.Predict("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	wantWeights, err := sys.EnsembleWeights("a")
	if err != nil {
		t.Fatal(err)
	}
	wantForecast, err := sys.Predict("a", 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	ids := restored.Sensors()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("restored sensors = %v", ids)
	}
	gotWeights, err := restored.EnsembleWeights("a")
	if err != nil {
		t.Fatal(err)
	}
	// Restore must be bit-exact, not merely close: the normalizer
	// reinstates frozen stats and ImportState must not renormalize
	// already-normalized weights, so a recovered system forecasts
	// identically to the live one it was checkpointed from.
	for kd, w := range wantWeights {
		if gotWeights[kd] != w {
			t.Fatalf("weight %v: %v vs %v", kd, gotWeights[kd], w)
		}
	}
	gotForecast, err := restored.Predict("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if gotForecast.Mean != wantForecast.Mean {
		t.Fatalf("restored forecast %v, want %v", gotForecast.Mean, wantForecast.Mean)
	}
	if gotForecast.Variance != wantForecast.Variance {
		t.Fatalf("restored variance %v, want %v", gotForecast.Variance, wantForecast.Variance)
	}
	// Streaming must keep working on the restored system (raw units).
	if err := restored.Observe("a", all[430]); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWALCoverRoundTrip: the cover saved with a checkpoint
// must come back on load, plain SaveFile must yield a nil cover, and
// saving the same state with the same multi-shard cover must give the
// same bytes every time.
func TestCheckpointWALCoverRoundTrip(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(2))
	if err := sys.AddSensor("a", noisySeasonal(rng, 400, 10, 100)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	withCover := dir + "/cover.ckpt"
	cover := map[int]uint64{0: 17, 1: 0, 2: 131}
	if err := sys.SaveFileWithCover(withCover, cover); err != nil {
		t.Fatal(err)
	}
	restored, got, err := LoadFileWithCover(withCover, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if len(got) != len(cover) {
		t.Fatalf("cover = %v, want %v", got, cover)
	}
	for shard, seq := range cover {
		if got[shard] != seq {
			t.Fatalf("cover[%d] = %d, want %d", shard, got[shard], seq)
		}
	}

	plain := dir + "/plain.ckpt"
	if err := sys.SaveFile(plain); err != nil {
		t.Fatal(err)
	}
	restored2, got2, err := LoadFileWithCover(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored2.Close()
	if got2 != nil {
		t.Fatalf("plain SaveFile produced cover %v, want nil", got2)
	}

	cover4 := map[int]uint64{0: 5, 1: 9, 2: 0, 3: 1 << 40}
	var first bytes.Buffer
	if err := sys.SaveToWithCover(&first, cover4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var again bytes.Buffer
		if err := sys.SaveToWithCover(&again, cover4); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d with the same cover gave different bytes", i+2)
		}
	}
}

func TestCheckpointGPHyperSurvives(t *testing.T) {
	cfg := smallConfig()
	cfg.Predictor = PredictorGP
	cfg.EKV = []int{4}
	cfg.ELV = []int{16}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(2))
	all := noisySeasonal(rng, 420, 5, 20)
	if err := sys.AddSensor("s", all[:400]); err != nil {
		t.Fatal(err)
	}
	// Train the GP warm-start state.
	for i := 400; i < 405; i++ {
		if _, err := sys.Predict("s", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.Observe("s", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	f1, err := sys.Predict("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	f2, err := restored.Predict("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-started optimization from the same hyperparameters on the
	// same kNN set must land on the same prediction.
	if math.Abs(f1.Mean-f2.Mean) > 1e-6 {
		t.Fatalf("restored GP forecast %v, want %v", f2.Mean, f1.Mean)
	}
}

func TestCheckpointErrors(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if err := sys.AddSensor("s", noisySeasonal(rng, 400, 1, 0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Normalization mismatch is rejected.
	badCfg := cfg
	badCfg.Normalize = false
	if _, err := Load(bytes.NewReader(buf.Bytes()), badCfg); err == nil {
		t.Fatal("normalization mismatch should fail")
	}
	// Garbage payload is rejected.
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint")), cfg); err == nil {
		t.Fatal("garbage payload should fail")
	}
	// Saving a closed system fails.
	sys.Close()
	if err := sys.SaveTo(&buf); err == nil {
		t.Fatal("SaveTo after Close should fail")
	}
}

// TestCheckpointTruncatedAndCorrupt is the regression test for the
// load path: truncated bytes at every prefix length and a flipped byte
// anywhere must produce a clean, descriptive error — never a panic and
// never a silently partial system. It runs on a checkpoint saved now
// and on the learned-LB fixture, a GP sensor's state.
func TestCheckpointTruncatedAndCorrupt(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(4))
	if err := sys.AddSensor("s", noisySeasonal(rng, 400, 2, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Predict("s", 1); err != nil { // the record carries a window level
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile("testdata/checkpoint_learnedlb_pr10.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	gpCfg := cfg
	gpCfg.Predictor = PredictorGP
	for _, in := range []struct {
		name string
		full []byte
		cfg  Config
		// The strides sample positions to keep the test fast; the
		// fixture is small enough to try every one.
		cutStride, flipStride int
	}{
		{"saved now", buf.Bytes(), cfg, 97, 131},
		{"learned-LB fixture", fixture, gpCfg, 1, 1},
	} {
		full := in.full
		load := func(b []byte) error {
			restored, err := Load(bytes.NewReader(b), in.cfg)
			if err == nil {
				restored.Close()
			} else if restored != nil {
				t.Fatalf("%s: a failed load returned a system", in.name)
			}
			return err
		}
		// Every truncation point fails cleanly, plus the boundary cases
		// around the 12-byte header.
		cuts := []int{0, 1, 7, 8, 11, 12, 13, len(full) - 1}
		for n := 16; n < len(full); n += in.cutStride {
			cuts = append(cuts, n)
		}
		for _, n := range cuts {
			if load(full[:n]) == nil {
				t.Fatalf("%s: truncation at %d/%d loaded successfully", in.name, n, len(full))
			}
		}
		// Every corrupted byte position fails cleanly too.
		for pos := 0; pos < len(full); pos += in.flipStride {
			bad := append([]byte(nil), full...)
			bad[pos] ^= 0x5a
			if load(bad) == nil {
				t.Fatalf("%s: flipped byte at %d loaded successfully", in.name, pos)
			}
		}
		// And the pristine bytes still load.
		if err := load(full); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
	}
}

// TestCheckpointV1RejectedAtMagic: an SMLRCKP1 file (a gob payload
// behind the same frame) is refused at the magic, before its body is
// read, by the decoder every load shares and by the migration/resync
// restore. The fixture is CRC-valid: a 547-byte gob body that claims
// 65,536 WAL cover entries, which a gob reader sizes a map for (about
// 2.4 MB) before it fails.
func TestCheckpointV1RejectedAtMagic(t *testing.T) {
	in, err := os.ReadFile("testdata/checkpoint_v1_forged_cover.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	body := in[checkpointHeaderLen:]
	if string(in[:8]) != "SMLRCKP1" || len(body) != 547 ||
		binary.LittleEndian.Uint32(in[8:]) != crc32.Checksum(body, checkpointCRCTable) {
		t.Fatalf("fixture is not a CRC-valid 547-byte SMLRCKP1 body (%d bytes, magic %q)", len(body), in[:8])
	}
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"decodeCheckpoint", func() error { _, err := decodeCheckpoint(in); return err }},
		{"RestoreSensorsFrom", func() error { _, err := sys.RestoreSensorsFrom(bytes.NewReader(in)); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("%s: err = %v, want a bad-magic error", c.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Fatalf("%s: allocated %d bytes refusing a %d-byte file", c.name, n, len(in))
		}
	}
	if got := sys.Sensors(); len(got) != 0 {
		t.Fatalf("sensors after a refused restore: %v", got)
	}
}

// TestSaveFileAtomic exercises the crash-atomic file checkpoint: a
// save over an existing checkpoint either fully replaces it or leaves
// it untouched, and LoadFile round-trips.
func TestSaveFileAtomic(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(5))
	if err := sys.AddSensor("s", noisySeasonal(rng, 400, 1, 0)); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/state.ckpt"
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Sensors(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("restored sensors = %v", got)
	}
	restored.Close()
	// Overwrite keeps working (rename over an existing file).
	if err := sys.Observe("s", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSensorCheckpointRoundTrip: a single-sensor envelope written by
// SaveSensorTo and merged back by RestoreSensorsFrom must be bit-exact
// and must replace an existing (diverged) copy of the sensor — the
// contract the cluster migration/resync path relies on.
func TestSensorCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rng := rand.New(rand.NewSource(7))
	all := noisySeasonal(rng, 460, 10, 100)
	if err := src.AddSensor("a", all[:400]); err != nil {
		t.Fatal(err)
	}
	if err := src.AddSensor("other", noisySeasonal(rng, 400, 3, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 430; i++ {
		if _, err := src.Predict("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := src.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := src.Predict("a", 2)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveSensorTo(&buf, "a"); err != nil {
		t.Fatal(err)
	}
	if err := src.SaveSensorTo(&bytes.Buffer{}, "nope"); err == nil {
		t.Fatal("want error for unknown sensor")
	}

	// Target holds a diverged copy of "a" (shorter history) plus its own
	// sensor; restore must replace the former and keep the latter.
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.AddSensor("a", all[:390]); err != nil {
		t.Fatal(err)
	}
	if err := dst.AddSensor("mine", noisySeasonal(rng, 400, 5, 50)); err != nil {
		t.Fatal(err)
	}
	ids, err := dst.RestoreSensorsFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("restored ids = %v", ids)
	}
	got, err := dst.Predict("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Variance != want.Variance {
		t.Fatalf("restored forecast (%v, %v), want (%v, %v)",
			got.Mean, got.Variance, want.Mean, want.Variance)
	}
	if !dst.HasSensor("mine") {
		t.Fatal("unrelated sensor lost during restore")
	}
	if n, _ := dst.HistoryLen("a"); n != 430 {
		t.Fatalf("restored history len %d, want 430", n)
	}
}

// TestFirstTouchSensorCheckpointMatchesTwin: a GP sensor whose first
// forecast seeded each column from one cold fit, moved through
// SaveSensorTo → RestoreSensorsFrom, forecasts bit-identically to an
// untouched twin that took the same first forecast: the step's h=1
// answer travels with the sensor and is served again on both sides.
func TestFirstTouchSensorCheckpointMatchesTwin(t *testing.T) {
	cfg := smallConfig()
	cfg.Predictor = PredictorGP
	cfg.EKV = []int{8, 16, 32}
	hist := noisySeasonal(rand.New(rand.NewSource(8)), 420, 10, 100)
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, s := range []*System{twin, src} {
		if err := s.AddSensor("a", hist); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Predict("a", 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveSensorTo(&buf, "a"); err != nil {
		t.Fatal(err)
	}
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.RestoreSensorsFrom(&buf); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{1, 3, 1} {
		got, err := dst.Predict("a", h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Predict("a", h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
			t.Fatalf("h=%d: restored %v/%v, twin %v/%v", h, got.Mean, got.Variance, want.Mean, want.Variance)
		}
		if got.Reused != want.Reused {
			t.Fatalf("h=%d: restored reused=%t, twin reused=%t", h, got.Reused, want.Reused)
		}
	}
}

// TestRestoreDropsLevelOfOtherShape: a checkpoint restored under the
// configuration it was saved with resumes the window level (the first
// forecast builds nothing); under another ρ, or an ELV that lacks a
// length the threshold seeds were kept for, the level is dropped and
// the first forecast builds the index, as a checkpoint without one
// would.
func TestRestoreDropsLevelOfOtherShape(t *testing.T) {
	cfg := smallConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddSensor("s", noisySeasonal(rand.New(rand.NewSource(9)), 400, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Predict("s", 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	otherRho, otherELV := cfg, cfg
	otherRho.Rho = 2
	otherELV.ELV = []int{16, 32, 40} // same d_max, no 24
	for _, c := range []struct {
		name   string
		cfg    Config
		builds uint64
	}{{"same shape", cfg, 0}, {"other ρ", otherRho, 1}, {"seeds off the ELV", otherELV, 1}} {
		restored, err := Load(bytes.NewReader(buf.Bytes()), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := restored.Predict("s", 2); err != nil { // h=1 is the restored step's memo
			t.Fatal(err)
		}
		if got := restored.Metrics().Counter("smiler_index_builds_total", "").Value(); got != c.builds {
			t.Fatalf("%s: first forecast after the restore counted %d index builds, want %d", c.name, got, c.builds)
		}
		restored.Close()
	}
}
