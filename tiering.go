package smiler

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"smiler/internal/fault"
	"smiler/internal/obs"
	"smiler/internal/timeseries"
)

// Hot/cold sensor tiering (Config.MaxHotSensors). A node can be
// registered for far more sensors than fit in memory: at most
// MaxHotSensors keep a live pipeline + device-resident index ("hot");
// the rest are spilled to disk ("cold"). A spill file is a one-sensor
// checkpoint with no WAL cover (checkpoint.go): the bytes SaveSensorTo
// writes for the sensor while it is hot. A predict, a history read or a
// NaN observe (imputing it needs a forecast) faults a cold sensor back
// in transparently. Any other observe does not: it appends the raw
// value to the sensor's tail file — little-endian float64s beside the
// spill file — and returns. readSpill, the one spill reader, folds the
// tail into the history through the frozen normaliser, so fault-in,
// checkpoints and single-sensor exports all see the folded state.
//
// A spill file carries the sensor's queued answers (the step's
// forecast memo and the auto-tuning updates awaiting their truth), so a
// sensor read, spilled, faulted in and read again in one step serves
// its first answer, as a sensor that stayed hot does. A tail ends the
// step: folding it drops the queued answers unscored, the one thing a
// spill still loses against a sensor that stayed hot (ROADMAP item 2).
// Otherwise the fold is exact: the observes only grow the index
// history. The spill file also carries the index's window level and
// threshold seeds as of the sensor's last search, so a fault-in resumes
// the index instead of building it: the next search catches it up over
// the folded tail as a hot sensor's search catches up over its
// observes, and does the same work.
//
// Recency: the LRU list holds the MaxHotSensors most recently used
// sensors, hot or cold. A cold observe moves its sensor to the front
// and leaves it cold; a sensor pushed off the back is spilled if it is
// hot and only forgotten if it is cold (its state is on disk already).
// Every hot sensor is on the list, so each sensor goes through the
// state changes it would if every observe faulted it in, only
// materialised later, and fewer sensors are resident.
//
// Spill and tail files are a runtime cache, not a durability layer:
// the directory is wiped at New (stale files from a previous run are
// garbage), so a spill or append is one plain write with no fsync, and
// durability still flows through checkpoints — SaveTo embeds cold
// sensors by reading their files — and WAL replay.
//
// Concurrency protocol: the tier's own bookkeeping (LRU order, cold
// set, tail lengths) lives behind tierState.mu, always acquired after
// s.mu (either mode) and never held while taking any other lock.
// Eviction, fault-in and tail appends run under s.mu write-locked, so
// with s.mu read-held the cold set and its files are stable. An evicted
// sensorState is marked gone under its st.mu, so an accessor that
// looked the sensor up before the eviction re-checks after locking and
// retries through the cold path instead of surfacing a closed-index
// error.
type tierState struct {
	mu     sync.Mutex
	max    int
	dir    string
	ownDir bool // dir was created by New → removed by Close

	// lru holds every hot id and the cold ids observed since they
	// spilled, front = most recently used; enforceCapLocked trims it to
	// max.
	lru *list.List
	pos map[string]*list.Element // listed id → lru element
	// cold maps each spilled id to the number of values in its tail
	// file; a sensor with none has no tail file.
	cold map[string]int
	// scratch holds the bytes of the spill file being written by an
	// eviction or read by a fault-in, both of which run under s.mu
	// write-locked, so one buffer, as large as the largest spill file
	// so far, serves them all.
	scratch []byte
}

// newTierState validates the tiering configuration and prepares the
// spill directory (wiping stale spill and tail files from a previous
// run).
func newTierState(cfg Config) (*tierState, error) {
	if cfg.MaxHotSensors < 0 {
		return nil, fmt.Errorf("smiler: negative MaxHotSensors %d", cfg.MaxHotSensors)
	}
	if cfg.MaxHotSensors == 0 {
		return nil, nil // unlimited: tiering off
	}
	t := &tierState{
		max:  cfg.MaxHotSensors,
		lru:  list.New(),
		pos:  make(map[string]*list.Element),
		cold: make(map[string]int),
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("smiler: spill dir: %w", err)
		}
		t.dir = cfg.SpillDir
		// Spill and tail files are a cache keyed to this process's tier
		// state; leftovers from a previous run are unreachable garbage.
		entries, err := os.ReadDir(t.dir)
		if err != nil {
			return nil, fmt.Errorf("smiler: spill dir: %w", err)
		}
		for _, e := range entries {
			if name := e.Name(); !e.IsDir() && (strings.HasSuffix(name, spillSuffix) || strings.HasSuffix(name, tailSuffix)) {
				_ = os.Remove(filepath.Join(t.dir, name))
			}
		}
	} else {
		dir, err := os.MkdirTemp("", "smiler-spill-")
		if err != nil {
			return nil, fmt.Errorf("smiler: spill dir: %w", err)
		}
		t.dir = dir
		t.ownDir = true
	}
	return t, nil
}

const (
	spillSuffix = ".spill"
	tailSuffix  = ".tail"
)

// spillPath maps a sensor id (arbitrary bytes) onto a filesystem-safe
// spill file name.
func (t *tierState) spillPath(id string) string {
	return t.path(id, spillSuffix)
}

// tailPath names the file a cold sensor's observations are appended to.
func (t *tierState) tailPath(id string) string {
	return t.path(id, tailSuffix)
}

func (t *tierState) path(id, suffix string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(t.dir, hex.EncodeToString(sum[:16])+suffix)
}

// writeSpill writes one sensor's spill file, encoded in the tier's
// scratch buffer. Callers hold s.mu write-locked.
func (t *tierState) writeSpill(id string, sc sensorCheckpoint) error {
	cp := checkpoint{Sensors: []sensorCheckpoint{sc}}
	t.scratch = appendCheckpoint(slices.Grow(t.scratch[:0], checkpointLen(cp)), cp)
	return os.WriteFile(t.spillPath(id), t.scratch, 0o644)
}

// readFileInto reads the whole file at path into buf, grown as needed,
// and returns the bytes.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], int(fi.Size()))[:fi.Size()]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

// readSpill loads one cold sensor's checkpoint entry from its spill
// file and folds its tail in: each appended raw value goes through the
// frozen normaliser the spill stores, exactly as Observe would have
// applied it, and lands at the end of the history. It is the one spill
// reader, behind fault-in, the saves that fold cold sensors in and the
// cold SaveSensorTo. Callers hold s.mu (read side suffices); with it
// write-locked they may pass the tier's scratch buffer as scratch, which
// the file is then read into, and otherwise nil.
func (s *System) readSpill(id string, scratch *[]byte) (sensorCheckpoint, error) {
	var buf []byte
	if scratch != nil {
		buf = *scratch
	}
	b, err := readFileInto(s.tier.spillPath(id), buf)
	var cp checkpoint
	if err == nil {
		cp, err = decodeCheckpoint(b) // copies out all it keeps
	}
	if scratch != nil && b != nil {
		*scratch = b
	}
	if err == nil && (len(cp.Sensors) != 1 || cp.Sensors[0].ID != id || cp.WALCover != nil) {
		err = errors.New("not a one-sensor checkpoint of this sensor")
	}
	if err == nil {
		err = s.foldTail(&cp.Sensors[0])
	}
	if err != nil {
		return sensorCheckpoint{}, fmt.Errorf("smiler: reading spill for %q: %w", id, err)
	}
	return cp.Sensors[0], nil
}

// foldTail appends the sensor's tail values to sc.History and drops
// its pending set: the step those answers belong to is over, and the
// auto-tuning updates its observations would have run are not replayed
// (so folding the tail in gives the state of a sensor faulted in for
// each observation). A sensor with no recorded tail touches no file.
func (s *System) foldTail(sc *sensorCheckpoint) error {
	n, _ := s.tier.tailLen(sc.ID)
	if n == 0 {
		return nil
	}
	sc.Pending = nil
	b, err := os.ReadFile(s.tier.tailPath(sc.ID))
	if err != nil {
		return err
	}
	if len(b) != 8*n {
		return fmt.Errorf("tail holds %d bytes, want %d values", len(b), n)
	}
	var norm *timeseries.Normalizer
	if sc.Normalized {
		norm = timeseries.NewNormalizerFromStats(sc.Norm)
	}
	sc.History = slices.Grow(sc.History, n)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if norm != nil {
			v = norm.Apply(v)
		}
		sc.History = append(sc.History, v)
	}
	return nil
}

// appendTail writes v as value n of a tail file. A failed append
// truncates the file back to its n values, so the recorded length
// stays the file's.
func appendTail(path string, n int, v float64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, err = f.WriteAt(b[:], int64(8*n))
	if err == nil {
		err = fault.Check(fault.PointTierTailAppend)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Truncate(path, int64(8*n))
	}
	return err
}

// touch moves a listed sensor to the front of the LRU list.
func (t *tierState) touch(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e, ok := t.pos[id]; ok {
		t.lru.MoveToFront(e)
	}
	t.mu.Unlock()
}

// toFrontLocked makes id the most recently used listed sensor. Callers
// hold t.mu.
func (t *tierState) toFrontLocked(id string) {
	if e, ok := t.pos[id]; ok {
		t.lru.MoveToFront(e)
	} else {
		t.pos[id] = t.lru.PushFront(id)
	}
}

// markHot registers a (newly added or faulted-in) sensor as hot and
// most recently used.
func (t *tierState) markHot(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.cold, id)
	t.toFrontLocked(id)
	t.mu.Unlock()
}

// appended records a cold sensor's tail of n values after an append
// and makes it the most recently used listed sensor.
func (t *tierState) appended(id string, n int) {
	t.mu.Lock()
	t.cold[id] = n
	t.toFrontLocked(id)
	t.mu.Unlock()
}

// unlist takes a sensor off the LRU list (removed, or trimmed off its
// back).
func (t *tierState) unlist(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e, ok := t.pos[id]; ok {
		t.lru.Remove(e)
		delete(t.pos, id)
	}
	t.mu.Unlock()
}

// markCold records a spilled sensor whose tail file holds n values.
func (t *tierState) markCold(id string, n int) {
	t.mu.Lock()
	t.cold[id] = n
	t.mu.Unlock()
}

// dropCold forgets a cold sensor (faulted in or removed) and returns
// the length of its tail.
func (t *tierState) dropCold(id string) int {
	t.mu.Lock()
	n := t.cold[id]
	delete(t.cold, id)
	t.mu.Unlock()
	return n
}

// removeFiles deletes a sensor's spill file and, when it has n > 0
// tail values, its tail file.
func (t *tierState) removeFiles(id string, n int) {
	_ = os.Remove(t.spillPath(id))
	if n > 0 {
		_ = os.Remove(t.tailPath(id))
	}
}

// isCold reports whether the sensor is currently spilled.
func (t *tierState) isCold(id string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	_, ok := t.cold[id]
	t.mu.Unlock()
	return ok
}

// tailLen reports how many values a cold sensor's tail file holds, and
// whether the sensor is cold at all.
func (t *tierState) tailLen(id string) (int, bool) {
	t.mu.Lock()
	n, ok := t.cold[id]
	t.mu.Unlock()
	return n, ok
}

// coldIDs returns the spilled sensor ids, in no particular order.
func (t *tierState) coldIDs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]string, 0, len(t.cold))
	for id := range t.cold {
		out = append(out, id)
	}
	t.mu.Unlock()
	return out
}

// coldCount reports the number of spilled sensors.
func (t *tierState) coldCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.cold)
	t.mu.Unlock()
	return n
}

// overflow returns the least recently used listed sensor other than
// keep while the LRU list is longer than the cap, and "" once it fits.
func (t *tierState) overflow(keep string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lru.Len() <= t.max {
		return ""
	}
	for e := t.lru.Back(); e != nil; e = e.Prev() {
		if id := e.Value.(string); id != keep {
			return id
		}
	}
	return ""
}

// close removes the spill directory when New created it (user-provided
// directories keep their files; the next boot wipes them).
func (t *tierState) close() {
	if t == nil {
		return
	}
	if t.ownDir {
		_ = os.RemoveAll(t.dir)
	}
}

// acquire returns the sensor's hot state with st.mu HELD, faulting the
// sensor in from its spill file when it is cold and retrying when an
// eviction races the lookup. faulted reports whether this call paid a
// tier fault (for trace tagging).
func (s *System) acquire(id string) (st *sensorState, faulted bool, err error) {
	return s.acquireFor(id, math.NaN())
}

// acquireFor is acquire on behalf of an observation v: when the sensor
// is cold and v is not NaN, v goes to the sensor's tail instead of a
// fault-in, and acquireFor returns a nil state.
func (s *System) acquireFor(id string, v float64) (st *sensorState, faulted bool, err error) {
	for {
		st, cold, err := s.lookupHot(id)
		if err != nil {
			return nil, faulted, err
		}
		if cold && !math.IsNaN(v) {
			if appended, err := s.observeCold(id, v); appended || err != nil {
				return nil, faulted, err
			}
			continue // faulted in meanwhile: use the hot state
		}
		if cold {
			if err := s.faultIn(id); err != nil {
				return nil, faulted, err
			}
			faulted = true
			continue
		}
		st.mu.Lock()
		if !st.gone {
			return st, faulted, nil
		}
		// Evicted between the map lookup and the lock: go around through
		// the cold path.
		st.mu.Unlock()
	}
}

// lookupHot resolves id to its hot state (touching the LRU), or
// reports that the sensor is cold, or errors for unknown sensors.
func (s *System) lookupHot(id string) (*sensorState, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, errors.New("smiler: system closed")
	}
	if st, ok := s.sensors[id]; ok {
		s.tier.touch(id)
		return st, false, nil
	}
	if s.tier.isCold(id) {
		return nil, true, nil
	}
	return nil, false, fmt.Errorf("smiler: unknown sensor %q", id)
}

// faultIn restores a cold sensor from its spill and tail files, makes
// it hot, and trims the LRU list to the cap. Idempotent under races: if
// another goroutine faulted the sensor in first, it is a no-op.
func (s *System) faultIn(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("smiler: system closed")
	}
	if _, ok := s.sensors[id]; ok {
		return nil // lost the race to another fault; already hot
	}
	if !s.tier.isCold(id) {
		return fmt.Errorf("smiler: unknown sensor %q", id)
	}
	sc, err := s.readSpill(id, &s.tier.scratch)
	if err != nil {
		return err
	}
	// The id leaves the cold set before the restore (installSensorLocked
	// treats cold ids as duplicates); a failed restore puts it back so
	// the sensor stays reachable for a retry.
	tail := s.tier.dropCold(id)
	if err := s.restoreSensorLocked(sc); err != nil {
		s.tier.markCold(id, tail)
		return fmt.Errorf("smiler: faulting in sensor %q: %w", id, err)
	}
	s.tier.markHot(id)
	s.tier.removeFiles(id, tail)
	s.obs.sensorFaults.Inc()
	s.obs.events.Record(obs.Event{Type: "sensor_fault_in", Severity: obs.SevInfo, Sensor: id})
	return s.enforceCapLocked(id)
}

// observeCold appends an observation of a cold sensor to its tail file
// and makes the sensor the most recently used, trimming the LRU list to
// the cap. It reports false with no error when the sensor is hot by the
// time s.mu is held: the caller then observes it the hot way.
func (s *System) observeCold(id string, v float64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("smiler: system closed")
	}
	if _, ok := s.sensors[id]; ok {
		return false, nil
	}
	n, cold := s.tier.tailLen(id)
	if !cold {
		return false, fmt.Errorf("smiler: unknown sensor %q", id)
	}
	if err := appendTail(s.tier.tailPath(id), n, v); err != nil {
		return false, fmt.Errorf("smiler: appending to the tail of sensor %q: %w", id, err)
	}
	s.tier.appended(id, n+1)
	s.obs.tailAppends.Inc()
	return true, s.enforceCapLocked(id)
}

// enforceCapLocked trims the LRU list to MaxHotSensors, never dropping
// keep (the sensor the caller is about to use): a hot sensor trimmed
// off the back is spilled, a cold one only leaves the list. Callers
// hold s.mu write-locked.
func (s *System) enforceCapLocked(keep string) error {
	t := s.tier
	if t == nil {
		return nil
	}
	for {
		id := t.overflow(keep)
		if id == "" {
			return nil
		}
		if _, hot := s.sensors[id]; !hot {
			t.unlist(id)
		} else if err := s.evictLocked(id); err != nil {
			return err
		}
	}
}

// evictLocked spills one hot sensor to disk and releases its pipeline
// and device memory. Callers hold s.mu write-locked; the sensor's own
// lock is taken here, so an in-flight prediction finishes first and
// the spilled state is a quiesced snapshot.
func (s *System) evictLocked(id string) error {
	st, ok := s.sensors[id]
	if !ok {
		return nil
	}
	st.mu.Lock()
	if err := s.tier.writeSpill(id, snapshotSensorLocked(id, st)); err != nil {
		st.mu.Unlock()
		return fmt.Errorf("smiler: spilling sensor %q: %w", id, err)
	}
	st.gone = true
	_ = st.ix.Close()
	st.mu.Unlock()
	delete(s.sensors, id)
	s.tier.unlist(id)
	s.tier.markCold(id, 0)
	// A cold sensor keeps no traces, so the trace store is bounded by
	// the hot cap rather than the population.
	s.obs.traces.Remove(id)
	s.obs.sensorEvictions.Inc()
	s.obs.events.Record(obs.Event{Type: "sensor_evict", Severity: obs.SevInfo, Sensor: id})
	return nil
}

// TierStats reports the hot/cold split (zero Cold, Faults and
// TailAppends when tiering is off).
type TierStats struct {
	Hot       int
	Cold      int
	Faults    uint64
	Evictions uint64
	// TailAppends counts observations a cold sensor took as a tail
	// append instead of a fault-in.
	TailAppends uint64
}

// Tiering reports the current hot/cold sensor split and the lifetime
// fault, eviction and tail-append counts.
func (s *System) Tiering() TierStats {
	s.mu.RLock()
	hot := len(s.sensors)
	s.mu.RUnlock()
	return TierStats{
		Hot:         hot,
		Cold:        s.tier.coldCount(),
		Faults:      s.obs.sensorFaults.Value(),
		Evictions:   s.obs.sensorEvictions.Value(),
		TailAppends: s.obs.tailAppends.Value(),
	}
}
