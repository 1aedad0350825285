package smiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"smiler/internal/core"
	"smiler/internal/fault"
	"smiler/internal/gp"
	"smiler/internal/timeseries"
	"smiler/internal/wal"
)

// A sensor's learned state has one encoding, shared by checkpoint files
// (SaveTo/SaveFile), replication resync frames (SaveSensorTo/
// RestoreSensorsFrom) and spill files (tiering.go: a one-sensor
// checkpoint with no cover). The layout is flat little-endian:
//
//	magic       [8]byte  "SMLRCKP3"
//	crc         uint32   CRC32C of every byte after it
//	cover       uint32 count, then per WAL shard, shards ascending:
//	              int64 shard, uint64 next sequence number
//	sensors     uint32 count, then per sensor:
//	  id          uint32 length, then the bytes
//	  normalized  uint8 (0 or 1)
//	  norm        float64 Mean, float64 Std
//	  history     uint32 count, then count × float64
//	  cells       uint32 count, then per cell:
//	                int64 K, int64 D, float64 Weight, uint8 Sleeping,
//	                int64 SleepLeft, int64 SleepSpan, uint8 WokeLately,
//	                float64 Signal, Length, Noise (gp.Hyper)
//	  pending     uint32 count, then per queued answer, in queue order:
//	                int64 Target, int64 H, uint8 Exact,
//	                float64 Mean, Variance (the mixed answer),
//	                uint32 count, then per cell prediction:
//	                  int64 K, int64 D, float64 Mean, Variance
//
// The magic carries the version. Floats travel as their IEEE bits (NaN
// payloads and −0 included) and the cover in shard order, so a round
// trip is bit-exact and one state has one encoding. The CRC turns a
// torn or bit-rotted file into a clean load error. A layout change
// keeps the reader for the layout before it, and no older one:
// "SMLRCKP2" (the same layout without the pending set) reads with no
// pending answers, and "SMLRCKP1" (a gob payload behind the same frame,
// whose reader trusted the sizes its input claimed) fails at the magic.
var (
	checkpointMagic        = [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '3'}
	checkpointMagicV2      = [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '2'}
	checkpointCRCTable     = crc32.MakeTable(crc32.Castagnoli)
	errCheckpointTruncated = errors.New("checkpoint truncated")
)

const (
	checkpointHeaderLen = len(checkpointMagic) + 4 // magic, CRC32C
	coverPairLen        = 8 + 8                    // shard, sequence number
	// minSensorLen is the smallest sensor record: an empty id, the flag,
	// the two norm statistics and three zero counts (two in SMLRCKP2).
	minSensorLen = 4 + 1 + 2*8 + 4 + 4 + 4
	// cellLen is one cell's fixed record: five 8-byte words of
	// CellState, two flag bytes, three 8-byte hyperparameters.
	cellLen = 5*8 + 2 + 3*8
	// minPendingLen is the smallest pending record: target, horizon,
	// the flag, the mixed answer and a zero count; pendingCellLen is one
	// cell prediction.
	minPendingLen  = 2*8 + 1 + 2*8 + 4
	pendingCellLen = 4 * 8
)

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
	// Pending is the pipeline's queued answers: the auto-tuning updates
	// awaiting their truth, the exact ones also the step's forecast memo.
	Pending []core.PendingState
}

// checkpoint is what one encoding holds.
type checkpoint struct {
	Sensors []sensorCheckpoint
	// WALCover records, per write-ahead-log shard, the sequence number
	// that shard's next append would have received when this checkpoint
	// was saved: every WAL record with a lower sequence number is
	// already folded into the checkpoint and must be skipped on replay.
	// Saved atomically with the state it covers, it closes the crash
	// window between a checkpoint save and the WAL reset it covers —
	// without it those records would be applied twice. Nil when no WAL
	// was in use.
	WALCover map[int]uint64
}

// SaveTo writes a checkpoint of the system — per-sensor histories,
// normalization statistics, ensemble auto-tuning state, GP warm-start
// hyperparameters and the answers still awaiting their truth — to w. A
// restored sensor serves the same answers as the one saved: a horizon
// its step already answered is served that answer again, and the
// auto-tuning updates queued before the save run when their truth
// arrives.
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
	cp := checkpoint{WALCover: cover}
	for id, st := range s.sensors {
		cp.Sensors = append(cp.Sensors, snapshotSensor(id, st))
	}
	// Cold sensors are folded in from their spill and tail files: a
	// spilled sensor is a quiesced snapshot already, and s.mu (held
	// read-side) blocks evictions, fault-ins and tail appends, so the
	// cold set and its files are stable for the duration of the save.
	// The merged list is sorted by id so the bytes are identical to an
	// untiered node's.
	for _, id := range s.tier.coldIDs() {
		sc, err := s.readSpill(id)
		if err != nil {
			return err
		}
		cp.Sensors = append(cp.Sensors, sc)
	}
	sort.Slice(cp.Sensors, func(i, j int) bool { return cp.Sensors[i].ID < cp.Sensors[j].ID })
	_, err := w.Write(encodeCheckpoint(cp))
	return err
}

// SaveSensorTo writes a checkpoint — same format as SaveTo — containing
// exactly one sensor and no WAL cover. This is the unit the cluster
// layer streams over HTTP when a stale replica resyncs: restoring it
// via RestoreSensorsFrom is
// bit-exact, like any checkpoint restore.
func (s *System) SaveSensorTo(w io.Writer, id string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("smiler: system closed")
	}
	var sc sensorCheckpoint
	if st, ok := s.sensors[id]; ok {
		sc = snapshotSensor(id, st)
	} else if s.tier.isCold(id) {
		// A cold sensor is exported from its spill and tail files,
		// without faulting in.
		var err error
		if sc, err = s.readSpill(id); err != nil {
			return err
		}
	} else {
		return fmt.Errorf("smiler: unknown sensor %q", id)
	}
	_, err := w.Write(encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{sc}}))
	return err
}

// RestoreSensorsFrom reads a checkpoint and merges every sensor it
// holds into the live system, replacing any existing sensor with the
// same id (a resyncing follower replaces its async-replicated copy with
// the owner's authoritative snapshot). It returns the ids restored.
func (s *System) RestoreSensorsFrom(r io.Reader) ([]string, error) {
	cp, err := readCheckpoint(r)
	if err != nil {
		return nil, err
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
	sc.Cells = make([]cellCheckpoint, len(states))
	for i, state := range states {
		sc.Cells[i].State = state
		if gpp, ok := cells[i].Pred.(*core.GPPredictor); ok {
			sc.Cells[i].Hyper = gpp.Hyper()
		}
	}
	sc.Pending = st.pipe.ExportPending()
	return sc
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
	cp, err := readCheckpoint(r)
	if err != nil {
		return nil, nil, err
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
	for _, cc := range sc.Cells {
		states = append(states, cc.State)
	}
	if err := st.pipe.Ensemble().ImportState(states); err != nil {
		return err
	}
	// Hyperparameters go by (k, d) too, the last entry winning.
	for _, c := range st.pipe.Ensemble().Cells() {
		gpp, ok := c.Pred.(*core.GPPredictor)
		for i := len(sc.Cells) - 1; ok && i >= 0; i-- {
			if cc := sc.Cells[i]; cc.State.K == c.K && cc.State.D == c.D {
				gpp.SetHyper(cc.Hyper)
				break
			}
		}
	}
	st.pipe.ImportPending(sc.Pending)
	return nil
}

// encodeCheckpoint lays cp out in one buffer of exactly its encoded
// size: the one writer of sensor state.
func encodeCheckpoint(cp checkpoint) []byte {
	n := checkpointHeaderLen + 4 + coverPairLen*len(cp.WALCover) + 4
	for i := range cp.Sensors {
		sc := &cp.Sensors[i]
		n += minSensorLen + len(sc.ID) + 8*len(sc.History) + cellLen*len(sc.Cells)
		for _, ps := range sc.Pending {
			n += minPendingLen + pendingCellLen*len(ps.Cells)
		}
	}
	b := make([]byte, checkpointHeaderLen, n)
	copy(b, checkpointMagic[:])
	le := binary.LittleEndian
	shards := make([]int, 0, len(cp.WALCover))
	for shard := range cp.WALCover {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	b = le.AppendUint32(b, uint32(len(shards)))
	for _, shard := range shards {
		b = le.AppendUint64(b, uint64(int64(shard)))
		b = le.AppendUint64(b, cp.WALCover[shard])
	}
	b = le.AppendUint32(b, uint32(len(cp.Sensors)))
	for i := range cp.Sensors {
		b = appendSensor(b, &cp.Sensors[i])
	}
	le.PutUint32(b[len(checkpointMagic):], crc32.Checksum(b[checkpointHeaderLen:], checkpointCRCTable))
	return b
}

func appendSensor(b []byte, sc *sensorCheckpoint) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(sc.ID)))
	b = append(b, sc.ID...)
	b = appendFlag(b, sc.Normalized)
	b = le.AppendUint64(b, math.Float64bits(sc.Norm.Mean))
	b = le.AppendUint64(b, math.Float64bits(sc.Norm.Std))
	b = le.AppendUint32(b, uint32(len(sc.History)))
	for _, v := range sc.History {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint32(b, uint32(len(sc.Cells)))
	for _, c := range sc.Cells {
		st := c.State
		b = le.AppendUint64(b, uint64(int64(st.K)))
		b = le.AppendUint64(b, uint64(int64(st.D)))
		b = le.AppendUint64(b, math.Float64bits(st.Weight))
		b = appendFlag(b, st.Sleeping)
		b = le.AppendUint64(b, uint64(int64(st.SleepLeft)))
		b = le.AppendUint64(b, uint64(int64(st.SleepSpan)))
		b = appendFlag(b, st.WokeLately)
		b = le.AppendUint64(b, math.Float64bits(c.Hyper.Signal))
		b = le.AppendUint64(b, math.Float64bits(c.Hyper.Length))
		b = le.AppendUint64(b, math.Float64bits(c.Hyper.Noise))
	}
	b = le.AppendUint32(b, uint32(len(sc.Pending)))
	for _, ps := range sc.Pending {
		b = le.AppendUint64(b, uint64(int64(ps.Target)))
		b = le.AppendUint64(b, uint64(int64(ps.H)))
		b = appendFlag(b, ps.Exact)
		b = le.AppendUint64(b, math.Float64bits(ps.Mixed.Mean))
		b = le.AppendUint64(b, math.Float64bits(ps.Mixed.Variance))
		b = le.AppendUint32(b, uint32(len(ps.Cells)))
		for _, pc := range ps.Cells {
			b = le.AppendUint64(b, uint64(int64(pc.K)))
			b = le.AppendUint64(b, uint64(int64(pc.D)))
			b = le.AppendUint64(b, math.Float64bits(pc.Pred.Mean))
			b = le.AppendUint64(b, math.Float64bits(pc.Pred.Variance))
		}
	}
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// readCheckpoint reads a whole checkpoint from r and decodes it.
func readCheckpoint(r io.Reader) (cp checkpoint, err error) {
	b, err := io.ReadAll(r)
	if err == nil {
		cp, err = decodeCheckpoint(b)
	}
	if err != nil {
		return cp, fmt.Errorf("smiler: reading checkpoint: %w", err)
	}
	return cp, nil
}

// decodeCheckpoint parses one encoding, SMLRCKP3 or the SMLRCKP2 before
// it. The checksum is verified before a field is read, and the parse is
// strict — flags are 0 or 1, counts fit the bytes left, cover shards
// ascend, nothing trails the last sensor — so every accepted SMLRCKP3
// input re-encodes to exactly its own bytes (an SMLRCKP2 one to the
// SMLRCKP3 encoding of the same state). Empty slices and an empty cover
// decode as nil.
func decodeCheckpoint(b []byte) (checkpoint, error) {
	if len(b) < checkpointHeaderLen {
		return checkpoint{}, errCheckpointTruncated
	}
	magic := [8]byte(b[:len(checkpointMagic)])
	if magic != checkpointMagic && magic != checkpointMagicV2 {
		return checkpoint{}, fmt.Errorf("not a checkpoint (bad magic %q)", magic[:])
	}
	want := binary.LittleEndian.Uint32(b[len(checkpointMagic):])
	if got := crc32.Checksum(b[checkpointHeaderLen:], checkpointCRCTable); got != want {
		return checkpoint{}, fmt.Errorf("checkpoint corrupt: CRC %08x, want %08x (truncated write or bit rot)", got, want)
	}
	var cp checkpoint
	r := checkpointReader{b: b[checkpointHeaderLen:], v2: magic == checkpointMagicV2}
	if n := r.count(coverPairLen); n > 0 {
		cp.WALCover = make(map[int]uint64, n)
		for i, prev := 0, 0; i < n; i++ {
			shard := r.i64()
			if i > 0 && shard <= prev && r.err == nil {
				r.err = fmt.Errorf("checkpoint cover shard %d after %d", shard, prev)
			}
			prev = shard
			cp.WALCover[shard] = r.u64()
		}
	}
	minSensor := minSensorLen
	if r.v2 {
		minSensor -= 4
	}
	if n := r.count(minSensor); n > 0 {
		cp.Sensors = make([]sensorCheckpoint, n)
		for i := range cp.Sensors {
			r.sensor(&cp.Sensors[i])
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("checkpoint has %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return checkpoint{}, r.err
	}
	return cp, nil
}

// checkpointReader consumes an SMLRCKP3 body (an SMLRCKP2 one when v2)
// front to back; the first failure sticks and every later read returns
// zero.
type checkpointReader struct {
	b   []byte
	err error
	v2  bool // no pending set
}

func (r *checkpointReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errCheckpointTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *checkpointReader) u64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *checkpointReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *checkpointReader) i64() int { return int(int64(r.u64())) }

func (r *checkpointReader) flag() bool {
	p := r.next(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.err = fmt.Errorf("checkpoint flag byte %d", p[0])
	}
	return p[0] == 1
}

// count reads a uint32 element count and rejects one whose elements of
// at least size bytes each cannot fit in what is left.
func (r *checkpointReader) count(size int) int {
	p := r.next(4)
	if p == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.err = errCheckpointTruncated
		return 0
	}
	return int(n)
}

func (r *checkpointReader) sensor(sc *sensorCheckpoint) {
	sc.ID = string(r.next(r.count(1)))
	sc.Normalized = r.flag()
	sc.Norm.Mean = r.f64()
	sc.Norm.Std = r.f64()
	if n := r.count(8); n > 0 {
		sc.History = make([]float64, n)
		for i := range sc.History {
			sc.History[i] = r.f64()
		}
	}
	if n := r.count(cellLen); n > 0 {
		sc.Cells = make([]cellCheckpoint, n)
		for i := range sc.Cells {
			c := &sc.Cells[i]
			c.State.K = r.i64()
			c.State.D = r.i64()
			c.State.Weight = r.f64()
			c.State.Sleeping = r.flag()
			c.State.SleepLeft = r.i64()
			c.State.SleepSpan = r.i64()
			c.State.WokeLately = r.flag()
			c.Hyper.Signal = r.f64()
			c.Hyper.Length = r.f64()
			c.Hyper.Noise = r.f64()
		}
	}
	if r.v2 {
		return
	}
	if n := r.count(minPendingLen); n > 0 {
		sc.Pending = make([]core.PendingState, n)
		for i := range sc.Pending {
			ps := &sc.Pending[i]
			ps.Target = r.i64()
			ps.H = r.i64()
			ps.Exact = r.flag()
			ps.Mixed.Mean = r.f64()
			ps.Mixed.Variance = r.f64()
			if m := r.count(pendingCellLen); m > 0 {
				ps.Cells = make([]core.PendingCell, m)
				for j := range ps.Cells {
					pc := &ps.Cells[j]
					pc.K = r.i64()
					pc.D = r.i64()
					pc.Pred.Mean = r.f64()
					pc.Pred.Variance = r.f64()
				}
			}
		}
	}
}
