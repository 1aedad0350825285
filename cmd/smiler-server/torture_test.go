package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/wal"
)

// torture_test.go drives the crash-recovery machinery through seeded
// kill points: a reference workload is appended to a real sharded WAL,
// crashes are simulated by truncating (or corrupting) the segment
// files at chosen byte offsets, and recovery is checked against the
// reference stream. Kill-point counts satisfy the robustness bar: the
// boundary sweep alone exercises one kill point per appended record.

const tortureShards = 3

// tortureOp is one reference operation with its shard placement.
type tortureOp struct {
	rec   wal.Record
	shard int
}

// tortureWorkload builds a deterministic op stream: three sensors with
// seeded histories, then interleaved observations.
func tortureWorkload(seed int64, observations int) []tortureOp {
	rng := rand.New(rand.NewSource(seed))
	ids := []string{"alpha", "beta", "gamma"}
	var ops []tortureOp
	for _, id := range ids {
		hist := make([]float64, 64)
		for i := range hist {
			hist[i] = 20 + 5*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
		}
		ops = append(ops, tortureOp{
			rec:   wal.Record{Type: wal.RecAddSensor, Sensor: id, History: hist},
			shard: ingest.ShardIndex(id, tortureShards),
		})
	}
	for i := 0; i < observations; i++ {
		id := ids[i%len(ids)]
		ops = append(ops, tortureOp{
			rec:   wal.Record{Type: wal.RecObserve, Sensor: id, Value: 20 + rng.NormFloat64()},
			shard: ingest.ShardIndex(id, tortureShards),
		})
	}
	return ops
}

// writeWorkload appends every op through a real Manager and returns,
// per op index, the byte size each shard's segment file had right
// after that append — the exact on-disk state of a crash at that
// record boundary (SyncAlways: every append is flushed).
func writeWorkload(t *testing.T, dir string, ops []tortureOp, policy wal.SyncPolicy) [][]int64 {
	t.Helper()
	mgr, err := wal.OpenManager(dir, tortureShards, wal.Options{Policy: policy}, ingest.ShardIndex)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sizes := make([][]int64, len(ops))
	for i, op := range ops {
		if err := mgr.Append(op.rec); err != nil {
			t.Fatalf("append op %d: %v", i, err)
		}
		sizes[i] = shardFileSizes(t, dir)
	}
	return sizes
}

// shardFileSizes reports the current byte size of each shard's single
// segment file (the workload is far below the rotation threshold).
func shardFileSizes(t *testing.T, dir string) []int64 {
	t.Helper()
	sizes := make([]int64, tortureShards)
	for s := 0; s < tortureShards; s++ {
		matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", s), "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 1 {
			t.Fatalf("shard %d has %d segments, expected 1 (raise workload rotation threshold?)", s, len(matches))
		}
		fi, err := os.Stat(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		sizes[s] = fi.Size()
	}
	return sizes
}

// cloneWAL copies a sharded WAL directory tree byte for byte.
func cloneWAL(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// truncateShard cuts one shard's segment file to n bytes.
func truncateShard(t *testing.T, dir string, shard int, n int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", shard), "*.wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard %d: %v (%d segments)", shard, err, len(matches))
	}
	if err := os.Truncate(matches[0], n); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one byte of the shard's segment file.
func flipByte(t *testing.T, dir string, shard int, off int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", shard), "*.wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard %d: %v (%d segments)", shard, err, len(matches))
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// collectReplay replays a WAL directory into per-shard record lists.
func collectReplay(t *testing.T, dir string) (map[int][]wal.Record, wal.ReplayStats) {
	t.Helper()
	got := make(map[int][]wal.Record)
	st, err := wal.ReplayDir(dir, func(shard int, seq uint64, r wal.Record) error {
		got[shard] = append(got[shard], r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay must stop cleanly at corruption, got error: %v", err)
	}
	return got, st
}

func recordsEqual(a, b wal.Record) bool {
	if a.Type != b.Type || a.Sensor != b.Sensor || a.Value != b.Value || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			return false
		}
	}
	return true
}

// expectShard returns the per-shard reference records for the first n
// ops of the workload.
func expectShard(ops []tortureOp, n int) map[int][]wal.Record {
	exp := make(map[int][]wal.Record)
	for _, op := range ops[:n] {
		exp[op.shard] = append(exp[op.shard], op.rec)
	}
	return exp
}

// assertPrefix checks that got is a record-wise prefix of want.
func assertPrefix(t *testing.T, shard int, got, want []wal.Record) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("shard %d: replay yielded %d records, reference only appended %d — invented records", shard, len(got), len(want))
	}
	for i := range got {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("shard %d record %d: replayed %+v, reference %+v", shard, i, got[i], want[i])
		}
	}
}

// TestTortureBoundaryKillPoints simulates a crash immediately after
// every single append (one kill point per record, >120 in total) by
// truncating the final segment files back to the byte sizes they had
// at that moment. With fsync=always every append is synced, so
// recovery must replay every record — losing even one means a synced
// observation was lost.
func TestTortureBoundaryKillPoints(t *testing.T) {
	ops := tortureWorkload(42, 120)
	base := filepath.Join(t.TempDir(), "wal")
	sizes := writeWorkload(t, base, ops, wal.SyncAlways)

	for k := 1; k <= len(ops); k++ {
		crash := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%03d", k))
		cloneWAL(t, base, crash)
		for s := 0; s < tortureShards; s++ {
			truncateShard(t, crash, s, sizes[k-1][s])
		}
		got, st := collectReplay(t, crash)
		if st.Torn {
			t.Fatalf("kill point %d: boundary crash must not look torn (segment %s)", k, st.TornSegment)
		}
		exp := expectShard(ops, k)
		total := 0
		for s := 0; s < tortureShards; s++ {
			if len(got[s]) != len(exp[s]) {
				t.Fatalf("kill point %d shard %d: recovered %d records, want %d (synced observation lost)",
					k, s, len(got[s]), len(exp[s]))
			}
			assertPrefix(t, s, got[s], exp[s])
			total += len(got[s])
		}
		if total != k {
			t.Fatalf("kill point %d: recovered %d records in total", k, total)
		}
	}
}

// TestTortureTornAndCorruptTails simulates crashes mid-write (random
// truncation inside a shard file) and on-disk corruption (byte flips):
// replay must stop cleanly, never surface a torn record, and yield an
// exact per-shard prefix of the reference stream; untouched shards
// must recover in full. Recovery is then run through the production
// path (recoverWAL) and its post-recovery predictions must be
// bit-identical to a never-crashed system fed the same surviving
// records.
func TestTortureTornAndCorruptTails(t *testing.T) {
	ops := tortureWorkload(7, 120)
	base := filepath.Join(t.TempDir(), "wal")
	sizes := writeWorkload(t, base, ops, wal.SyncAlways)
	final := sizes[len(ops)-1]
	exp := expectShard(ops, len(ops))

	const trials = 40
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed-%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			crash := filepath.Join(t.TempDir(), "crash")
			cloneWAL(t, base, crash)
			// Pick a shard that actually holds records (ids may hash
			// unevenly across the three shards).
			shard := rng.Intn(tortureShards)
			for final[shard] < 2 {
				shard = (shard + 1) % tortureShards
			}
			off := 1 + rng.Int63n(final[shard]-1)
			corrupt := trial%2 == 1
			if corrupt {
				flipByte(t, crash, shard, off)
			} else {
				truncateShard(t, crash, shard, off)
			}

			got, _ := collectReplay(t, crash)
			for s := 0; s < tortureShards; s++ {
				assertPrefix(t, s, got[s], exp[s])
				if s != shard && len(got[s]) != len(exp[s]) {
					t.Fatalf("untouched shard %d lost records: %d of %d", s, len(got[s]), len(exp[s]))
				}
			}

			// Production recovery vs a never-crashed reference fed the
			// same surviving records: bit-identical state and forecasts.
			recovered, err := smiler.New(smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if _, err := recoverWAL(recovered, crash, nil, quiet); err != nil {
				t.Fatal(err)
			}
			reference, err := smiler.New(smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer reference.Close()
			for s := 0; s < tortureShards; s++ {
				for _, r := range got[s] {
					switch r.Type {
					case wal.RecAddSensor:
						err = reference.AddSensor(r.Sensor, r.History)
					case wal.RecObserve:
						err = reference.Observe(r.Sensor, r.Value)
					case wal.RecRemoveSensor:
						err = reference.RemoveSensor(r.Sensor)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, id := range reference.Sensors() {
				refHist, err := reference.History(id)
				if err != nil {
					t.Fatal(err)
				}
				gotHist, err := recovered.History(id)
				if err != nil {
					t.Fatalf("sensor %s recovered by reference but not by recoverWAL: %v", id, err)
				}
				if len(refHist) != len(gotHist) {
					t.Fatalf("sensor %s: recovered %d points, reference %d", id, len(gotHist), len(refHist))
				}
				for i := range refHist {
					if refHist[i] != gotHist[i] {
						t.Fatalf("sensor %s point %d: recovered %v, reference %v", id, i, gotHist[i], refHist[i])
					}
				}
				fr, err := reference.Predict(id, 1)
				if err != nil {
					t.Fatal(err)
				}
				fg, err := recovered.Predict(id, 1)
				if err != nil {
					t.Fatal(err)
				}
				if fr.Mean != fg.Mean || fr.Variance != fg.Variance {
					t.Fatalf("sensor %s: recovered forecast (%v, %v) != reference (%v, %v)",
						id, fg.Mean, fg.Variance, fr.Mean, fr.Variance)
				}
			}
		})
	}
}

// applyOps feeds reference ops straight into a system.
func applyOps(t *testing.T, sys *smiler.System, ops []tortureOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.rec.Type {
		case wal.RecAddSensor:
			err = sys.AddSensor(op.rec.Sensor, op.rec.History)
		case wal.RecObserve:
			err = sys.Observe(op.rec.Sensor, op.rec.Value)
		case wal.RecRemoveSensor:
			err = sys.RemoveSensor(op.rec.Sensor)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// assertSameHistories fails unless both systems hold bit-identical
// per-sensor histories.
func assertSameHistories(t *testing.T, got, want *smiler.System) {
	t.Helper()
	gotIDs, wantIDs := got.Sensors(), want.Sensors()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("recovered sensors %v, want %v", gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		wh, err := want.History(id)
		if err != nil {
			t.Fatal(err)
		}
		gh, err := got.History(id)
		if err != nil {
			t.Fatalf("sensor %s missing after recovery: %v", id, err)
		}
		if len(gh) != len(wh) {
			t.Fatalf("sensor %s: recovered %d points, want %d (covered records re-applied?)", id, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i] != wh[i] {
				t.Fatalf("sensor %s point %d: %v != %v", id, i, gh[i], wh[i])
			}
		}
	}
}

// emulateShardReset leaves one shard's directory exactly as
// Manager.Reset does: every segment deleted and a fresh empty segment
// whose name preserves the next sequence number.
func emulateShardReset(t *testing.T, dir string, shard int, nextSeq uint64) {
	t.Helper()
	sd := filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
	matches, err := filepath.Glob(filepath.Join(sd, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	fresh := filepath.Join(sd, fmt.Sprintf("%020d.wal", nextSeq))
	if err := os.WriteFile(fresh, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTortureCheckpointResetWindow is the kill point between a
// checkpoint save and the WAL reset it covers — the window where the
// durable checkpoint already contains every WAL record. Crashing there
// (before the reset, or after only some shards were reset) must not
// double-apply a single observation: the cover embedded in the
// checkpoint tells replay to skip everything below it.
func TestTortureCheckpointResetWindow(t *testing.T) {
	ops := tortureWorkload(13, 90)
	base := filepath.Join(t.TempDir(), "wal")
	writeWorkload(t, base, ops, wal.SyncAlways)

	// The state and cover the shutdown checkpoint captured.
	ref, err := smiler.New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	applyOps(t, ref, ops)
	mgr, err := wal.OpenManager(base, tortureShards, wal.Options{}, ingest.ShardIndex)
	if err != nil {
		t.Fatal(err)
	}
	cover := mgr.NextSeqs()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	if err := ref.SaveFileWithCover(ckpt, cover); err != nil {
		t.Fatal(err)
	}

	// Kill points: before any shard was reset, mid-reset, after all.
	for resetShards := 0; resetShards <= tortureShards; resetShards++ {
		t.Run(fmt.Sprintf("reset-%d-shards", resetShards), func(t *testing.T) {
			crash := filepath.Join(t.TempDir(), "crash")
			cloneWAL(t, base, crash)
			for s := 0; s < resetShards; s++ {
				emulateShardReset(t, crash, s, cover[s])
			}
			sys, loadedCover, err := smiler.LoadFileWithCover(ckpt, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if len(loadedCover) != tortureShards {
				t.Fatalf("checkpoint cover = %v, want %d shards", loadedCover, tortureShards)
			}
			if _, err := recoverWAL(sys, crash, loadedCover, quiet); err != nil {
				t.Fatal(err)
			}
			assertSameHistories(t, sys, ref)
		})
	}

	// The same window through the production path: openDurability must
	// fold the leftover covered records away (fresh checkpoint + reset,
	// sequence numbers preserved) and keep the state intact.
	crash := filepath.Join(t.TempDir(), "crash-prod")
	cloneWAL(t, base, crash)
	ckpt2 := filepath.Join(t.TempDir(), "state2.ckpt")
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt2, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sys, loadedCover, err := smiler.LoadFileWithCover(ckpt2, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	o := options{walDir: crash, checkpoint: ckpt2, fsync: "always", shards: tortureShards}
	mgr, err = openDurability(sys, loadedCover, o, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	assertSameHistories(t, sys, ref)
	// Sequence numbers must survive the reset so the rewritten cover
	// stays consistent with future appends.
	for shard, next := range mgr.NextSeqs() {
		if next < cover[shard] {
			t.Fatalf("shard %d sequence regressed to %d (cover %d)", shard, next, cover[shard])
		}
	}
	if st, err := recoverWAL(sys, crash, nil, quiet); err != nil || st.Records != 0 {
		t.Fatalf("WAL not reset after post-recovery checkpoint: %d records, err %v", st.Records, err)
	}
	// The rewritten checkpoint must carry the fresh cover.
	sys2, cover2, err := smiler.LoadFileWithCover(ckpt2, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	assertSameHistories(t, sys2, ref)
	for shard, next := range mgr.NextSeqs() {
		if cover2[shard] != next {
			t.Fatalf("rewritten cover[%d] = %d, want %d", shard, cover2[shard], next)
		}
	}
}

// TestTortureStaleCoverRewritten: a checkpoint whose cover refers to a WAL
// that no longer exists (directory wiped by an operator) must not make
// replay skip the low sequence numbers a fresh WAL reuses — recovery
// detects the stale cover and rewrites the checkpoint against the
// fresh, empty log.
func TestTortureStaleCoverRewritten(t *testing.T) {
	ref, err := smiler.New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	applyOps(t, ref, tortureWorkload(5, 6))
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	stale := map[int]uint64{0: 50, 1: 40, 2: 30}
	if err := ref.SaveFileWithCover(ckpt, stale); err != nil {
		t.Fatal(err)
	}

	sys, cover, err := smiler.LoadFileWithCover(ckpt, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	walDir := filepath.Join(t.TempDir(), "wal") // fresh: seqs restart at 0
	o := options{walDir: walDir, checkpoint: ckpt, fsync: "always", shards: tortureShards}
	mgr, err := openDurability(sys, cover, o, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sys2, cover2, err := smiler.LoadFileWithCover(ckpt, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	for shard, seq := range cover2 {
		if seq != 0 {
			t.Fatalf("stale cover survived recovery: cover[%d] = %d, want 0", shard, seq)
		}
	}
}

// TestRecoveredHistoryPrefixProperty is the per-fsync-policy property:
// whatever suffix of the log a crash destroys, the recovered history
// of every sensor is a prefix of the reference stream — the policies
// differ only in how long that lost suffix may be, never in shape.
func TestRecoveredHistoryPrefixProperty(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			ops := tortureWorkload(99, 90)
			base := filepath.Join(t.TempDir(), "wal")
			sizes := writeWorkload(t, base, ops, policy)
			final := sizes[len(ops)-1]

			// Reference per-sensor stream: initial history ++ observations
			// in shard order (per-sensor order == per-shard order).
			refStream := make(map[string][]float64)
			for _, op := range ops {
				switch op.rec.Type {
				case wal.RecAddSensor:
					refStream[op.rec.Sensor] = append([]float64(nil), op.rec.History...)
				case wal.RecObserve:
					refStream[op.rec.Sensor] = append(refStream[op.rec.Sensor], op.rec.Value)
				}
			}

			rng := rand.New(rand.NewSource(2026))
			for trial := 0; trial < 10; trial++ {
				crash := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%02d", trial))
				cloneWAL(t, base, crash)
				// Destroy an arbitrary suffix of every shard — the worst
				// case any fsync policy admits.
				for s := 0; s < tortureShards; s++ {
					truncateShard(t, crash, s, rng.Int63n(final[s]+1))
				}
				sys, err := smiler.New(smallCfg())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := recoverWAL(sys, crash, nil, quiet); err != nil {
					t.Fatal(err)
				}
				for _, id := range sys.Sensors() {
					got, err := sys.History(id)
					if err != nil {
						t.Fatal(err)
					}
					ref := refStream[id]
					if len(got) > len(ref) {
						t.Fatalf("%s trial %d sensor %s: recovered %d points, reference %d",
							policy, trial, id, len(got), len(ref))
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("%s trial %d sensor %s point %d: %v != %v — not a prefix",
								policy, trial, id, i, got[i], ref[i])
						}
					}
				}
				sys.Close()
			}
		})
	}
}

// TestTortureRecoveryTiered runs WAL recovery with a hot-sensor cap
// below the population: replay must churn the spill tier (evicting
// mid-replay, the observations of cold sensors landing in their tail
// files) and still recover bit-identical histories and forecasts, the
// forecasts faulting the sensors back in from spill + tail. This is the
// crash-recovery harness with tiering enabled.
func TestTortureRecoveryTiered(t *testing.T) {
	ops := tortureWorkload(11, 90)
	base := filepath.Join(t.TempDir(), "wal")
	writeWorkload(t, base, ops, wal.SyncAlways)

	cfg := smallCfg()
	cfg.MaxHotSensors = 1
	recovered, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if _, err := recoverWAL(recovered, base, nil, quiet); err != nil {
		t.Fatal(err)
	}
	reference, err := smiler.New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()
	applyOps(t, reference, ops)

	if st := recovered.Tiering(); st.Evictions == 0 || st.TailAppends == 0 {
		t.Fatalf("replay over 3 sensors at cap 1 must evict and append to tails: %+v", st)
	}
	assertSameHistories(t, recovered, reference)
	faults := recovered.Tiering().Faults
	for _, id := range reference.Sensors() {
		fr, err := reference.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := recovered.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Mean != fg.Mean || fr.Variance != fg.Variance {
			t.Fatalf("sensor %s: tiered recovery forecast (%v, %v) != reference (%v, %v)",
				id, fg.Mean, fg.Variance, fr.Mean, fr.Variance)
		}
	}
	if st := recovered.Tiering(); st.Faults == faults {
		t.Fatalf("the forecast sweep over 3 sensors at cap 1 must fault sensors in: %+v", st)
	}
}
