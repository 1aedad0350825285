package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"smiler/internal/fault"
)

func obsRec(id string, v float64) Record {
	return Record{Type: RecObserve, Sensor: id, Value: v}
}

func collect(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var out []Record
	st, err := Replay(dir, func(seq uint64, r Record) error {
		if seq != uint64(len(out)) {
			t.Fatalf("seq %d, want %d", seq, len(out))
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: RecAddSensor, Sensor: "s1", History: []float64{1, 2, 3.5}},
		obsRec("s1", 4.25),
		obsRec("s1", -7),
		{Type: RecRemoveSensor, Sensor: "s1"},
	}
	for _, r := range want {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir)
	if st.Torn || st.Records != uint64(len(want)) {
		t.Fatalf("stats = %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Type != w.Type || r.Sensor != w.Sensor || r.Value != w.Value || len(r.History) != len(w.History) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
		for j := range r.History {
			if r.History[j] != w.History[j] {
				t.Fatalf("record %d history[%d] = %v, want %v", i, j, r.History[j], w.History[j])
			}
		}
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	for cut := 1; cut <= 12; cut++ {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := l.Append(obsRec("s", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Tear the tail: chop `cut` bytes off the single segment.
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, err %v", segs, err)
		}
		path := filepath.Join(dir, segName(segs[0]))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		got, st := collect(t, dir)
		// Each observe frame is 4 + (1+1+1+8) + 4 = 19 bytes; cutting up
		// to 19 bytes kills exactly the last record.
		if len(got) != 4 {
			t.Fatalf("cut %d: replayed %d records, want 4", cut, len(got))
		}
		if !st.Torn {
			t.Fatalf("cut %d: tear not reported", cut)
		}
	}
}

func TestReplayStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(obsRec("s", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the third record (frame = 19 bytes).
	data[2*19+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", len(got))
	}
	if !st.Torn || st.TornSegment != path {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenRepairsTornTailAndContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(obsRec("s", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[0]))
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	// Reopen: the torn third record is chopped, appends continue at
	// sequence 2.
	l, err = Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after repair = %d, want 2", got)
	}
	if seq, err := l.Append(obsRec("s", 99)); err != nil || seq != 2 {
		t.Fatalf("append after repair: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir)
	if st.Torn {
		t.Fatalf("repaired log still torn: %+v", st)
	}
	if len(got) != 3 || got[2].Value != 99 {
		t.Fatalf("records after repair = %+v", got)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(obsRec("sensor", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	got, _ := collect(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	// A checkpoint covering the whole log lets every segment go, the
	// sealed ones included; numbering carries on from n.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	after, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] != n {
		t.Fatalf("segments after reset = %v, want one starting at %d", after, n)
	}
	if got, _ := collect(t, dir); len(got) != 0 {
		t.Fatalf("replayed %d records after reset", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(obsRec("s", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != 0 {
		t.Fatalf("replay after reset returned %d records", len(got))
	}
	// Sequence numbers stay monotonic across the reset.
	if seq, err := l.Append(obsRec("s", 1)); err != nil || seq != 5 {
		t.Fatalf("append after reset: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append(obsRec("s", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		st := l.Stats()
		if pol == SyncAlways && st.Syncs != 10 {
			t.Fatalf("SyncAlways synced %d times, want 10", st.Syncs)
		}
		if pol == SyncOff && st.Syncs != 0 {
			t.Fatalf("SyncOff synced %d times, want 0", st.Syncs)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := collect(t, dir)
		if len(got) != 10 {
			t.Fatalf("%v: replayed %d records", pol, len(got))
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "per-write": SyncAlways,
		"interval": SyncInterval, "off": SyncOff, "none": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestManagerShardingAndReplay(t *testing.T) {
	dir := t.TempDir()
	shardFor := func(id string, n int) int { return len(id) % n }
	m, err := OpenManager(dir, 3, Options{Policy: SyncOff}, shardFor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Record{Type: RecAddSensor, Sensor: "ab", History: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Append(Record{Type: RecObserve, Sensor: "ab", Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Append(Record{Type: RecRemoveSensor, Sensor: "ab"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var types []RecordType
	st, err := ReplayDir(dir, func(shard int, seq uint64, r Record) error {
		if shard != 2 { // len("ab") % 3
			t.Fatalf("record on shard %d, want 2", shard)
		}
		types = append(types, r.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 6 || st.Torn {
		t.Fatalf("stats = %+v", st)
	}
	if types[0] != RecAddSensor || types[len(types)-1] != RecRemoveSensor {
		t.Fatalf("order = %v", types)
	}
}

func TestManagerResetAndRemoveDir(t *testing.T) {
	dir := t.TempDir()
	shardFor := func(id string, n int) int { return 0 }
	m, err := OpenManager(dir, 2, Options{Policy: SyncOff}, shardFor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Record{Type: RecObserve, Sensor: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayDir(dir, func(int, uint64, Record) error { return nil })
	if err != nil || st.Records != 0 {
		t.Fatalf("records after reset = %d, err %v", st.Records, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Removing the directory removes the logs and their numbering: a
	// reopen starts from sequence 0.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m, err = OpenManager(dir, 2, Options{Policy: SyncOff}, shardFor)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for shard, seq := range m.NextSeqs() {
		if seq != 0 {
			t.Fatalf("shard %d starts at %d after removal, want 0", shard, seq)
		}
	}
}

// TestManagerPinsShardCount: the first open of a WAL directory pins
// its shard count; reopening with a different configured count (e.g. a
// GOMAXPROCS default changing across hosts) must keep the pinned count
// while records remain, so a sensor's appends stay in the shard whose
// log holds its earlier records and per-sensor replay order survives.
func TestManagerPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir, 3, Options{Policy: SyncOff}, ShardByLen)
	if err != nil {
		t.Fatal(err)
	}
	const id = "abcd" // len 4: shard 1 of 3, but shard 0 of 4
	if err := m.Append(Record{Type: RecAddSensor, Sensor: id, History: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Record{Type: RecObserve, Sensor: id, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for 4 shards: the pinned count must win.
	m, err = OpenManager(dir, 4, Options{Policy: SyncOff}, ShardByLen)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 3 {
		t.Fatalf("reopened with %d shards, want pinned 3", m.Shards())
	}
	if err := m.Append(Record{Type: RecObserve, Sensor: id, Value: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := ReplayDir(dir, func(shard int, seq uint64, r Record) error {
		if want := ShardByLen(id, 3); shard != want {
			t.Fatalf("record %v on shard %d, want %d", r.Type, shard, want)
		}
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Type != RecAddSensor || got[1].Value != 1 || got[2].Value != 2 {
		t.Fatalf("replay = %+v, want add,1,2 in order", got)
	}

	// Clearing the directory clears the pin with the logs; a fresh
	// open may remap.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m, err = OpenManager(dir, 4, Options{Policy: SyncOff}, ShardByLen)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Shards() != 4 {
		t.Fatalf("fresh open has %d shards, want 4", m.Shards())
	}
}

// ShardByLen is a trivial shard function for manager tests.
func ShardByLen(id string, n int) int { return len(id) % n }

func TestInjectedAppendAndSyncFaults(t *testing.T) {
	in := fault.NewInjector(1)
	in.Set(fault.PointWALAppend, fault.Rule{Kind: fault.KindError, After: 3, Once: true})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var errs int
	for i := 0; i < 5; i++ {
		if _, err := l.Append(obsRec("s", float64(i))); err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("unexpected error %v", err)
			}
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("injected %d append errors, want 1", errs)
	}
	in.Set(fault.PointWALSync, fault.Rule{Kind: fault.KindError, After: 1, Once: true})
	if err := l.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync = %v, want injected error", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after fault = %v", err)
	}
}

func TestInjectedReadCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(obsRec("s", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(1)
	in.Set(fault.PointWALRead, fault.Rule{Kind: fault.KindCorrupt, After: 4, Once: true})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)
	got, st := collect(t, dir)
	if len(got) != 3 || !st.Torn {
		t.Fatalf("replayed %d records (torn=%v), want 3 before the corrupt 4th", len(got), st.Torn)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("content = %q", b)
	}
	// A failing writer leaves the old content and no temp litter.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("writer error swallowed")
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("failed write clobbered target: %q", b)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter: %v", entries)
	}
}
