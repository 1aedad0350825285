package smiler

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"smiler/internal/obs"
)

// Hot/cold sensor tiering (Config.MaxHotSensors). A node can be
// registered for far more sensors than fit in memory: at most
// MaxHotSensors keep a live pipeline + device-resident index ("hot");
// the rest are spilled to disk ("cold") and faulted back in
// transparently on the next observe, predict or history read, evicting
// the least recently used hot sensor to make room. A spill file is a
// one-sensor checkpoint with no WAL cover (checkpoint.go): the bytes
// SaveSensorTo writes for the sensor while it is hot.
//
// Spill files are a runtime cache, not a durability layer: the
// directory is wiped at New (stale files from a previous run are
// garbage), so a spill is one plain write with no fsync, and
// durability still flows through checkpoints — SaveTo embeds cold
// sensors by decoding their spill files — and WAL replay, which faults
// sensors in as records arrive.
//
// Concurrency protocol: the tier's own bookkeeping (LRU order, cold
// set) lives behind tierState.mu, always acquired after s.mu (either
// mode) and never held while taking any other lock. Eviction and
// fault-in run under s.mu write-locked; an evicted sensorState is
// marked gone under its st.mu, so an accessor that looked the sensor
// up before the eviction re-checks after locking and retries through
// the fault-in path instead of surfacing a closed-index error.
type tierState struct {
	mu     sync.Mutex
	max    int
	dir    string
	ownDir bool // dir was created by New → removed by Close

	lru  *list.List               // hot ids, front = most recently used
	pos  map[string]*list.Element // hot id → lru element
	cold map[string]struct{}      // spilled ids
}

// newTierState validates the tiering configuration and prepares the
// spill directory (wiping stale spill files from a previous run).
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
		cold: make(map[string]struct{}),
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("smiler: spill dir: %w", err)
		}
		t.dir = cfg.SpillDir
		// Spill files are a cache keyed to this process's tier state;
		// leftovers from a previous run are unreachable garbage.
		entries, err := os.ReadDir(t.dir)
		if err != nil {
			return nil, fmt.Errorf("smiler: spill dir: %w", err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), spillSuffix) {
				_ = os.Remove(filepath.Join(t.dir, e.Name()))
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

const spillSuffix = ".spill"

// spillPath maps a sensor id (arbitrary bytes) onto a filesystem-safe
// spill file name.
func (t *tierState) spillPath(id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(t.dir, hex.EncodeToString(sum[:16])+spillSuffix)
}

// writeSpill writes one sensor's spill file.
func writeSpill(path string, sc sensorCheckpoint) error {
	return os.WriteFile(path, encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{sc}}), 0o644)
}

// readSpill loads one cold sensor's checkpoint entry from its spill
// file — the one spill reader, behind fault-in, the saves that fold
// cold sensors in and the cold SaveSensorTo, which sends the returned
// file bytes as they are. Callers hold s.mu (read side suffices).
func (s *System) readSpill(id string) (sensorCheckpoint, []byte, error) {
	b, err := os.ReadFile(s.tier.spillPath(id))
	var cp checkpoint
	if err == nil {
		cp, err = decodeCheckpoint(b)
	}
	if err == nil && (len(cp.Sensors) != 1 || cp.Sensors[0].ID != id || cp.WALCover != nil) {
		err = errors.New("not a one-sensor checkpoint of this sensor")
	}
	if err != nil {
		return sensorCheckpoint{}, nil, fmt.Errorf("smiler: reading spill for %q: %w", id, err)
	}
	return cp.Sensors[0], b, nil
}

// touch marks a hot sensor as most recently used.
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

// markHot registers a (newly added or faulted-in) sensor as hot and
// most recently used.
func (t *tierState) markHot(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.cold, id)
	if e, ok := t.pos[id]; ok {
		t.lru.MoveToFront(e)
	} else {
		t.pos[id] = t.lru.PushFront(id)
	}
	t.mu.Unlock()
}

// dropHot forgets a hot sensor (removed or about to go cold).
func (t *tierState) dropHot(id string) {
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

// markCold records a spilled sensor.
func (t *tierState) markCold(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cold[id] = struct{}{}
	t.mu.Unlock()
}

// dropCold forgets a cold sensor (faulted in or removed).
func (t *tierState) dropCold(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.cold, id)
	t.mu.Unlock()
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

// victim returns the least recently used hot sensor other than keep,
// or "" when none qualifies.
func (t *tierState) victim(keep string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
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
	for {
		st, cold, err := s.lookupHot(id)
		if err != nil {
			return nil, faulted, err
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
		// Evicted between the map lookup and the lock: go around and
		// fault it back in.
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

// faultIn restores a cold sensor from its spill file, makes it
// hot, and evicts down to the cap. Idempotent under races: if another
// goroutine faulted the sensor in first, it is a no-op.
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
	sc, _, err := s.readSpill(id)
	if err != nil {
		return err
	}
	// The id leaves the cold set before the restore (installSensorLocked
	// treats cold ids as duplicates); a failed restore puts it back so
	// the sensor stays reachable for a retry.
	s.tier.dropCold(id)
	if err := s.restoreSensorLocked(sc); err != nil {
		s.tier.markCold(id)
		return fmt.Errorf("smiler: faulting in sensor %q: %w", id, err)
	}
	s.tier.markHot(id)
	_ = os.Remove(s.tier.spillPath(id))
	s.obs.sensorFaults.Inc()
	s.obs.events.Record(obs.Event{Type: "sensor_fault_in", Severity: obs.SevInfo, Sensor: id})
	return s.enforceCapLocked(id)
}

// enforceCapLocked evicts least-recently-used hot sensors until the
// hot population fits MaxHotSensors, never evicting keep (the sensor
// the caller is about to use). Callers hold s.mu write-locked.
func (s *System) enforceCapLocked(keep string) error {
	t := s.tier
	if t == nil {
		return nil
	}
	for len(s.sensors) > t.max {
		victim := t.victim(keep)
		if victim == "" {
			return nil // only keep is hot; allow the transient overshoot
		}
		if err := s.evictLocked(victim); err != nil {
			return err
		}
	}
	return nil
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
	if err := writeSpill(s.tier.spillPath(id), snapshotSensorLocked(id, st)); err != nil {
		st.mu.Unlock()
		return fmt.Errorf("smiler: spilling sensor %q: %w", id, err)
	}
	st.gone = true
	_ = st.ix.Close()
	st.mu.Unlock()
	delete(s.sensors, id)
	s.tier.dropHot(id)
	s.tier.markCold(id)
	// A cold sensor keeps no traces, so the trace store is bounded by
	// the hot cap rather than the population.
	s.obs.traces.Remove(id)
	s.obs.sensorEvictions.Inc()
	s.obs.events.Record(obs.Event{Type: "sensor_evict", Severity: obs.SevInfo, Sensor: id})
	return nil
}

// TierStats reports the hot/cold split (zero Cold and Faults when
// tiering is off).
type TierStats struct {
	Hot       int
	Cold      int
	Faults    uint64
	Evictions uint64
}

// Tiering reports the current hot/cold sensor split and the lifetime
// fault/eviction counts.
func (s *System) Tiering() TierStats {
	s.mu.RLock()
	hot := len(s.sensors)
	s.mu.RUnlock()
	return TierStats{
		Hot:       hot,
		Cold:      s.tier.coldCount(),
		Faults:    s.obs.sensorFaults.Value(),
		Evictions: s.obs.sensorEvictions.Value(),
	}
}
