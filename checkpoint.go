package smiler

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"smiler/internal/core"
	"smiler/internal/fault"
	"smiler/internal/gp"
	"smiler/internal/timeseries"
	"smiler/internal/wal"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// checkpointMagic opens the framed checkpoint envelope: magic, then a
// CRC32C of the gob payload, then the payload. The checksum is what
// turns a truncated or bit-rotted checkpoint into a clean load error
// instead of a decode panic or silently partial state.
var checkpointMagic = [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '1'}

var checkpointCRCTable = crc32.MakeTable(crc32.Castagnoli)

// cellCheckpoint serializes one ensemble cell's auto-tuning state plus
// its GP warm-start hyperparameters (zero for AR cells or untrained
// GPs).
type cellCheckpoint struct {
	State core.CellState
	Hyper gp.Hyper
}

// sensorCheckpoint serializes one sensor.
type sensorCheckpoint struct {
	ID string
	// History is the normalized history the index holds (raw history
	// when normalization is off).
	History []float64
	// Normalized records whether Norm is meaningful.
	Normalized bool
	Norm       timeseries.Stats
	Cells      []cellCheckpoint
}

// checkpoint is the gob payload.
type checkpoint struct {
	Version int
	Sensors []sensorCheckpoint
	// WALCover records, per write-ahead-log shard, the sequence number
	// that shard's next append would have received when this checkpoint
	// was saved: every WAL record with a lower sequence number is
	// already folded into the checkpoint and must be skipped on replay.
	// Saved atomically with the state it covers, it closes the crash
	// window between a checkpoint save and the WAL reset it covers —
	// without it those records would be applied twice. Nil when no WAL
	// was in use (and in checkpoints written before the field existed;
	// gob decodes the missing field as nil).
	WALCover map[int]uint64
}

// SaveTo writes a checkpoint of the system — per-sensor histories,
// normalization statistics, ensemble auto-tuning state and GP
// warm-start hyperparameters — to w. Predictions still awaiting their
// truth (pending auto-tuning updates) are not persisted; after a
// restore, the first few updates are simply skipped.
func (s *System) SaveTo(w io.Writer) error {
	return s.SaveToWithCover(w, nil)
}

// SaveToWithCover writes a checkpoint like SaveTo and embeds cover —
// the per-shard WAL sequence numbers the checkpoint reaches (see
// wal.Manager.NextSeqs). Replay skips records below the cover, so a
// crash between the checkpoint save and the WAL reset it covers can
// never double-apply observations.
func (s *System) SaveToWithCover(w io.Writer, cover map[int]uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("smiler: system closed")
	}
	cp := checkpoint{Version: checkpointVersion, WALCover: cover}
	for _, id := range s.sensorsLocked() {
		cp.Sensors = append(cp.Sensors, snapshotSensor(id, s.sensors[id]))
	}
	// Cold sensors are folded in from their spill files: a spilled
	// sensor is a quiesced snapshot already, and s.mu (held read-side)
	// blocks evictions and fault-ins, so the cold set and its files are
	// stable for the duration of the save. The merged list is re-sorted
	// so the payload is byte-identical to an untiered node's.
	for _, id := range s.tier.coldIDs() {
		sc, err := s.readSpill(id)
		if err != nil {
			return err
		}
		cp.Sensors = append(cp.Sensors, sc)
	}
	sort.Slice(cp.Sensors, func(i, j int) bool { return cp.Sensors[i].ID < cp.Sensors[j].ID })
	return writeCheckpoint(w, cp)
}

// SaveSensorTo writes a checkpoint envelope — same format as SaveTo —
// containing exactly one sensor. This is the unit the cluster layer
// streams over HTTP when a sensor migrates between nodes or a stale
// replica resyncs: restoring it via RestoreSensorsFrom is bit-exact,
// like any checkpoint restore.
func (s *System) SaveSensorTo(w io.Writer, id string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("smiler: system closed")
	}
	st, ok := s.sensors[id]
	if !ok {
		if s.tier.isCold(id) {
			// A spill file holds the quiesced sensorCheckpoint a hot
			// snapshot would take, so a cold sensor streams to the
			// migration/resync path re-framed as the same envelope,
			// without faulting in.
			sc, err := s.readSpill(id)
			if err != nil {
				return err
			}
			return writeCheckpoint(w, checkpoint{
				Version: checkpointVersion,
				Sensors: []sensorCheckpoint{sc},
			})
		}
		return fmt.Errorf("smiler: unknown sensor %q", id)
	}
	return writeCheckpoint(w, checkpoint{
		Version: checkpointVersion,
		Sensors: []sensorCheckpoint{snapshotSensor(id, st)},
	})
}

// RestoreSensorsFrom reads a checkpoint envelope and merges every
// sensor it holds into the live system, replacing any existing sensor
// with the same id (a migration target replaces its async-replicated
// copy with the owner's authoritative snapshot). It returns the ids
// restored.
func (s *System) RestoreSensorsFrom(r io.Reader) ([]string, error) {
	cp, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("smiler: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	ids := make([]string, 0, len(cp.Sensors))
	for _, sc := range cp.Sensors {
		if s.HasSensor(sc.ID) {
			if err := s.RemoveSensor(sc.ID); err != nil {
				return ids, fmt.Errorf("smiler: replacing sensor %q: %w", sc.ID, err)
			}
		}
		if err := s.restoreSensor(sc); err != nil {
			return ids, fmt.Errorf("smiler: restoring sensor %q: %w", sc.ID, err)
		}
		ids = append(ids, sc.ID)
	}
	return ids, nil
}

// snapshotSensor captures one sensor's checkpoint state (history,
// normalizer statistics, ensemble auto-tuning state, GP warm-start
// hyperparameters). Callers hold s.mu (read side is enough; the
// per-sensor lock serializes against concurrent predictions).
func snapshotSensor(id string, st *sensorState) sensorCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	return snapshotSensorLocked(id, st)
}

// snapshotSensorLocked is snapshotSensor for callers that already hold
// st.mu (the tier's eviction path snapshots under the lock it must
// keep until the state is marked gone).
func snapshotSensorLocked(id string, st *sensorState) sensorCheckpoint {
	sc := sensorCheckpoint{
		ID:      id,
		History: st.ix.History(),
	}
	if st.norm != nil {
		sc.Normalized = true
		sc.Norm = st.norm.Stats()
	}
	states := st.pipe.Ensemble().ExportState()
	cells := st.pipe.Ensemble().Cells()
	for i, state := range states {
		cc := cellCheckpoint{State: state}
		if gpp, ok := cells[i].Pred.(*core.GPPredictor); ok {
			cc.Hyper = gpp.Hyper()
		}
		sc.Cells = append(sc.Cells, cc)
	}
	return sc
}

// writeCheckpoint frames the gob payload: magic, CRC32C, payload.
func writeCheckpoint(w io.Writer, cp checkpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return fmt.Errorf("smiler: encoding checkpoint: %w", err)
	}
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), checkpointCRCTable))
	if _, err := w.Write(crc[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// SaveFile writes a checkpoint crash-atomically: the bytes land in a
// temp file that is fsynced and renamed over path, so a crash mid-save
// leaves either the previous checkpoint or the new one, never a torn
// mix.
func (s *System) SaveFile(path string) error {
	return s.SaveFileWithCover(path, nil)
}

// SaveFileWithCover writes a checkpoint crash-atomically like SaveFile
// with an embedded WAL cover (see SaveToWithCover).
func (s *System) SaveFileWithCover(path string, cover map[int]uint64) error {
	if err := fault.Check(fault.PointCheckpointWrite); err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, func(w io.Writer) error {
		return s.SaveToWithCover(w, cover)
	})
}

// LoadFile restores a System from a checkpoint file written by
// SaveFile (see Load).
func LoadFile(path string, cfg Config) (*System, error) {
	sys, _, err := LoadFileWithCover(path, cfg)
	return sys, err
}

// LoadFileWithCover restores a System from a checkpoint file and
// returns the WAL cover embedded at save time (nil for checkpoints
// saved without a WAL). Recovery passes the cover to WAL replay so
// records the checkpoint already contains are skipped.
func LoadFileWithCover(path string, cfg Config) (*System, map[int]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return loadWithCover(f, cfg)
}

// sensorsLocked returns sorted ids; callers hold s.mu.
func (s *System) sensorsLocked() []string {
	out := make([]string, 0, len(s.sensors))
	for id := range s.sensors {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Load reconstructs a System from a checkpoint written by SaveTo,
// using cfg for everything structural (device shape, ensemble
// dimensions, predictor kind). The checkpoint must have been produced
// by a system with a compatible configuration: sensor histories are
// re-indexed from scratch, ensemble weights and GP hyperparameters are
// restored by (k, d) match.
func Load(r io.Reader, cfg Config) (*System, error) {
	sys, _, err := loadWithCover(r, cfg)
	return sys, err
}

func loadWithCover(r io.Reader, cfg Config) (*System, map[int]uint64, error) {
	cp, err := decodeCheckpoint(r)
	if err != nil {
		return nil, nil, err
	}
	if cp.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("smiler: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	sys, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range cp.Sensors {
		if err := sys.restoreSensor(sc); err != nil {
			sys.Close()
			return nil, nil, fmt.Errorf("smiler: restoring sensor %q: %w", sc.ID, err)
		}
	}
	return sys, cp.WALCover, nil
}

// decodeCheckpoint reads the framed envelope: magic, CRC32C, gob
// payload. Truncated or corrupt bytes — including gob decoder panics
// on hostile input — come back as descriptive errors, never partial
// state: the payload is checksummed before a single byte is decoded.
func decodeCheckpoint(r io.Reader) (cp checkpoint, err error) {
	var magic [8]byte
	if _, rerr := io.ReadFull(r, magic[:]); rerr != nil {
		return cp, fmt.Errorf("smiler: checkpoint truncated reading header: %w", rerr)
	}
	if magic != checkpointMagic {
		return cp, fmt.Errorf("smiler: not a checkpoint (bad magic %q)", magic[:])
	}
	var crcBuf [4]byte
	if _, rerr := io.ReadFull(r, crcBuf[:]); rerr != nil {
		return cp, fmt.Errorf("smiler: checkpoint truncated reading checksum: %w", rerr)
	}
	payload, rerr := io.ReadAll(r)
	if rerr != nil {
		return cp, fmt.Errorf("smiler: reading checkpoint payload: %w", rerr)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(payload, checkpointCRCTable); got != want {
		return cp, fmt.Errorf("smiler: checkpoint corrupt: CRC %08x, want %08x (truncated write or bit rot)", got, want)
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("smiler: decoding checkpoint: %v", rec)
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); derr != nil {
		return cp, fmt.Errorf("smiler: decoding checkpoint: %w", derr)
	}
	return cp, nil
}

// restoreSensor re-adds one sensor from its checkpoint, then enforces
// the hot-sensor cap (a restore beyond MaxHotSensors spills the least
// recently used sensor).
func (s *System) restoreSensor(sc sensorCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.restoreSensorLocked(sc); err != nil {
		return err
	}
	s.tier.markHot(sc.ID)
	return s.enforceCapLocked(sc.ID)
}

// restoreSensorLocked re-adds one sensor from its checkpoint. The
// history in the checkpoint is already normalized, so it is installed
// as is, with the frozen statistics reinstated bit-exactly (refitting
// on reconstructed points would only approximate them and recovered
// values would drift by an ulp from the never-crashed system). Callers
// hold s.mu write-locked and do their own tier bookkeeping.
func (s *System) restoreSensorLocked(sc sensorCheckpoint) error {
	if sc.Normalized != s.cfg.Normalize {
		return fmt.Errorf("normalization mismatch: checkpoint %v, config %v",
			sc.Normalized, s.cfg.Normalize)
	}
	var norm *timeseries.Normalizer
	if sc.Normalized {
		norm = timeseries.NewNormalizerFromStats(sc.Norm)
	}
	if err := s.installSensorLocked(sc.ID, sc.History, norm); err != nil {
		return err
	}
	st := s.sensors[sc.ID]
	st.mu.Lock()
	defer st.mu.Unlock()
	states := make([]core.CellState, 0, len(sc.Cells))
	hyperByKD := make(map[[2]int]gp.Hyper, len(sc.Cells))
	for _, cc := range sc.Cells {
		states = append(states, cc.State)
		hyperByKD[[2]int{cc.State.K, cc.State.D}] = cc.Hyper
	}
	if err := st.pipe.Ensemble().ImportState(states); err != nil {
		return err
	}
	for _, c := range st.pipe.Ensemble().Cells() {
		if gpp, ok := c.Pred.(*core.GPPredictor); ok {
			gpp.SetHyper(hyperByKD[[2]int{c.K, c.D}])
		}
	}
	return nil
}
