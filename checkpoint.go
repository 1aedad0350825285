package smiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"smiler/internal/core"
	"smiler/internal/fault"
	"smiler/internal/gp"
	"smiler/internal/index"
	"smiler/internal/timeseries"
	"smiler/internal/wal"
)

// A sensor's learned state has one encoding, shared by checkpoint files
// (SaveTo/SaveFile), replication resync frames (SaveSensorTo/
// RestoreSensorsFrom) and spill files (tiering.go: a one-sensor
// checkpoint with no cover). The layout is flat little-endian:
//
//	magic       [8]byte  "SMLRCKP4"
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
//	  level       uint8 (1 when the index's window level is built), then:
//	                int64 ω, ρ, d_max (the shape it was built under),
//	                int64 synced (the history length it covers),
//	                EQ, EC: uint32 count, then count × float32, each
//	                  nSW × ⌊synced/ω⌋ entries in logical row order,
//	                envelopes U, L: uint32 count, then count × float32,
//	                  each ω × ⌊synced/ω⌋ points,
//	                seeds: uint32 count, then per item query length,
//	                  ascending: int64 d, uint32 count, then count ×
//	                  int64 position (the previous step's kNN set)
//
// The magic carries the version. Floats travel as their IEEE bits (NaN
// payloads and −0 included) and the cover in shard order, so a round
// trip is bit-exact and one state has one encoding. The CRC turns a
// torn or bit-rotted file into a clean load error. The level section is
// index.Level: a restore installs it, so the sensor's next search
// resumes the window level and the threshold seeds instead of building
// them (a level built under another ω, ρ or d_max, or seeded for a
// length the ELV does not hold, is dropped, and the index builds). A
// layout change keeps the reader for the layout before it, and no older
// one: "SMLRCKP3" (the same layout without the level section) reads with
// no level, and "SMLRCKP2" and "SMLRCKP1" fail at the magic.
var (
	checkpointMagic        = [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '4'}
	checkpointMagicV3      = [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '3'}
	checkpointCRCTable     = crc32.MakeTable(crc32.Castagnoli)
	errCheckpointTruncated = errors.New("checkpoint truncated")
)

const (
	checkpointHeaderLen = len(checkpointMagic) + 4 // magic, CRC32C
	coverPairLen        = 8 + 8                    // shard, sequence number
	// minSensorLen is the smallest sensor record: an empty id, the flag,
	// the two norm statistics, three zero counts and no level (no level
	// flag in SMLRCKP3).
	minSensorLen = 4 + 1 + 2*8 + 4 + 4 + 4 + 1
	// cellLen is one cell's fixed record: five 8-byte words of
	// CellState, two flag bytes, three 8-byte hyperparameters.
	cellLen = 5*8 + 2 + 3*8
	// minPendingLen is the smallest pending record: target, horizon,
	// the flag, the mixed answer and a zero count; pendingCellLen is one
	// cell prediction.
	minPendingLen  = 2*8 + 1 + 2*8 + 4
	pendingCellLen = 4 * 8
	// minLevelLen is the smallest level section after its flag: the shape,
	// synced and five zero counts; minSeedsLen is one seed set with no
	// positions.
	minLevelLen = 4*8 + 5*4
	minSeedsLen = 8 + 4
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
	// Level is the index's window level and threshold seeds, nil when the
	// window level is not built.
	Level *index.Level
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
	// Cold sensors are folded in from their spill and tail files: a
	// spilled sensor is a quiesced snapshot already, and s.mu (held
	// read-side) blocks evictions, fault-ins and tail appends, so the
	// cold set and its files are stable for the duration of the save.
	// The records go in id order, so the bytes are identical to an
	// untiered node's; a hot one is encoded under its sensor's lock.
	ids := s.tier.coldIDs()
	for id := range s.sensors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b := appendCheckpointHead(nil, cover, len(ids))
	for _, id := range ids {
		if st, ok := s.sensors[id]; ok {
			st.mu.Lock()
			sc := snapshotSensorLocked(id, st)
			b = appendSensor(b, &sc)
			st.mu.Unlock()
			continue
		}
		sc, err := s.readSpill(id, nil)
		if err != nil {
			return err
		}
		b = appendSensor(b, &sc)
	}
	_, err := w.Write(sealCheckpoint(b))
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
	var b []byte
	if st, ok := s.sensors[id]; ok {
		st.mu.Lock()
		b = encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{snapshotSensorLocked(id, st)}})
		st.mu.Unlock()
	} else if s.tier.isCold(id) {
		// A cold sensor is exported from its spill and tail files,
		// without faulting in.
		sc, err := s.readSpill(id, nil)
		if err != nil {
			return err
		}
		b = encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{sc}})
	} else {
		return fmt.Errorf("smiler: unknown sensor %q", id)
	}
	_, err := w.Write(b)
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

// snapshotSensorLocked captures one sensor's checkpoint state: history,
// normalizer statistics, ensemble auto-tuning state, GP warm-start
// hyperparameters, pending answers and the index's window level. The
// history and the level are the index's own slices, not copies, so the
// record is valid only while the caller holds st.mu (and s.mu, read
// side at least): callers encode it before they unlock.
func snapshotSensorLocked(id string, st *sensorState) sensorCheckpoint {
	sc := sensorCheckpoint{
		ID:      id,
		History: st.ix.HistoryView(),
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
	sc.Level = st.ix.Level()
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
	if sc.Level != nil {
		// A level this configuration could not have built is dropped, and
		// the first search builds the index from the history instead.
		_ = st.ix.InstallLevel(sc.Level)
	}
	return nil
}

// encodeCheckpoint lays cp out in one buffer of exactly its encoded
// size: the one writer of sensor state, with appendCheckpointHead,
// appendSensor and sealCheckpoint, which it is made of.
func encodeCheckpoint(cp checkpoint) []byte {
	return appendCheckpoint(make([]byte, 0, checkpointLen(cp)), cp)
}

// checkpointLen returns the encoded size of cp.
func checkpointLen(cp checkpoint) int {
	n := checkpointHeaderLen + 4 + coverPairLen*len(cp.WALCover) + 4
	for i := range cp.Sensors {
		sc := &cp.Sensors[i]
		n += minSensorLen + len(sc.ID) + 8*len(sc.History) + cellLen*len(sc.Cells)
		for _, ps := range sc.Pending {
			n += minPendingLen + pendingCellLen*len(ps.Cells)
		}
		if l := sc.Level; l != nil {
			n += minLevelLen + 4*(planeLen(l.EQ)+planeLen(l.EC)+len(l.EnvU)+len(l.EnvL))
			for _, sd := range l.Seeds {
				n += minSeedsLen + 8*len(sd.T)
			}
		}
	}
	return n
}

// appendCheckpoint appends the encoding of cp to b, which must be
// empty.
func appendCheckpoint(b []byte, cp checkpoint) []byte {
	b = appendCheckpointHead(b, cp.WALCover, len(cp.Sensors))
	for i := range cp.Sensors {
		b = appendSensor(b, &cp.Sensors[i])
	}
	return sealCheckpoint(b)
}

// appendCheckpointHead appends to the empty b the magic, room for the
// CRC, the cover in shard order and the count of the sensor records
// that must follow.
func appendCheckpointHead(b []byte, cover map[int]uint64, sensors int) []byte {
	b = append(b, checkpointMagic[:]...)
	b = append(b, 0, 0, 0, 0)
	le := binary.LittleEndian
	shards := make([]int, 0, len(cover))
	for shard := range cover {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	b = le.AppendUint32(b, uint32(len(shards)))
	for _, shard := range shards {
		b = le.AppendUint64(b, uint64(int64(shard)))
		b = le.AppendUint64(b, cover[shard])
	}
	return le.AppendUint32(b, uint32(sensors))
}

// sealCheckpoint writes the CRC of everything after the header into
// the header of the encoding b, and returns b.
func sealCheckpoint(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(checkpointMagic):], crc32.Checksum(b[checkpointHeaderLen:], checkpointCRCTable))
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
	l := sc.Level
	b = appendFlag(b, l != nil)
	if l == nil {
		return b
	}
	for _, v := range [...]int{l.Omega, l.Rho, l.DMax, l.Synced} {
		b = le.AppendUint64(b, uint64(int64(v)))
	}
	for _, plane := range [...][][]float32{l.EQ, l.EC} {
		b = le.AppendUint32(b, uint32(planeLen(plane)))
		for _, row := range plane {
			b = appendFloat32s(b, row)
		}
	}
	for _, env := range [...][]float32{l.EnvU, l.EnvL} {
		b = le.AppendUint32(b, uint32(len(env)))
		b = appendFloat32s(b, env)
	}
	b = le.AppendUint32(b, uint32(len(l.Seeds)))
	for _, sd := range l.Seeds {
		b = le.AppendUint64(b, uint64(int64(sd.D)))
		b = le.AppendUint32(b, uint32(len(sd.T)))
		for _, t := range sd.T {
			b = le.AppendUint64(b, uint64(int64(t)))
		}
	}
	return b
}

// planeLen returns the number of entries in a posting plane.
func planeLen(plane [][]float32) int {
	n := 0
	for _, row := range plane {
		n += len(row)
	}
	return n
}

// appendFloat32s appends the bits of vs, one little-endian uint32 each.
func appendFloat32s(b []byte, vs []float32) []byte {
	n := len(b)
	b = slices.Grow(b, 4*len(vs))[:n+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[n+4*i:], math.Float32bits(v))
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

// decodeCheckpoint parses one encoding, SMLRCKP4 or the SMLRCKP3 before
// it. The checksum is verified before a field is read, and the parse is
// strict — flags are 0 or 1, counts fit the bytes left, cover shards
// ascend, a level section is one its own record's history could hold
// (index.Level.Validate), nothing trails the last sensor — so every
// accepted SMLRCKP4 input re-encodes to exactly its own bytes (an
// SMLRCKP3 one to the SMLRCKP4 encoding of the same state). Empty slices
// and an empty cover decode as nil.
func decodeCheckpoint(b []byte) (checkpoint, error) {
	if len(b) < checkpointHeaderLen {
		return checkpoint{}, errCheckpointTruncated
	}
	magic := [8]byte(b[:len(checkpointMagic)])
	if magic != checkpointMagic && magic != checkpointMagicV3 {
		return checkpoint{}, fmt.Errorf("not a checkpoint (bad magic %q)", magic[:])
	}
	want := binary.LittleEndian.Uint32(b[len(checkpointMagic):])
	if got := crc32.Checksum(b[checkpointHeaderLen:], checkpointCRCTable); got != want {
		return checkpoint{}, fmt.Errorf("checkpoint corrupt: CRC %08x, want %08x (truncated write or bit rot)", got, want)
	}
	var cp checkpoint
	r := checkpointReader{b: b[checkpointHeaderLen:], v3: magic == checkpointMagicV3}
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
	if r.v3 {
		minSensor--
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

// checkpointReader consumes an SMLRCKP4 body (an SMLRCKP3 one when v3)
// front to back; the first failure sticks and every later read returns
// zero.
type checkpointReader struct {
	b   []byte
	err error
	v3  bool // no level section
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

// f32s reads a uint32 count, then that many float32s.
func (r *checkpointReader) f32s() []float32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	r.f32sInto(out)
	return out
}

// plane reads a uint32 count, then that many float32s as a posting
// plane of rows rows (index.NewPlane's layout), refusing a count that
// does not split into rows non-empty rows.
func (r *checkpointReader) plane(rows int) [][]float32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	if rows < 1 || n < rows || n%rows != 0 {
		r.err = fmt.Errorf("checkpoint posting plane of %d entries in %d rows", n, rows)
		return nil
	}
	plane := index.NewPlane(rows, n/rows)
	for _, row := range plane {
		r.f32sInto(row)
	}
	return plane
}

// f32sInto fills out from the next 4·len(out) bytes.
func (r *checkpointReader) f32sInto(out []float32) {
	p := r.next(4 * len(out))
	if p == nil {
		return
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

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
	if !r.v3 && r.flag() {
		sc.Level = r.level(len(sc.History))
	}
}

// level reads a level section and refuses one that contradicts its
// record: a history of n points could not hold it.
func (r *checkpointReader) level(n int) *index.Level {
	l := &index.Level{Omega: r.i64(), Rho: r.i64(), DMax: r.i64(), Synced: r.i64()}
	nSW := l.DMax - l.Omega + 1
	l.EQ, l.EC = r.plane(nSW), r.plane(nSW)
	l.EnvU, l.EnvL = r.f32s(), r.f32s()
	if m := r.count(minSeedsLen); m > 0 {
		l.Seeds = make([]index.Seeds, m)
		for i := range l.Seeds {
			sd := &l.Seeds[i]
			sd.D = r.i64()
			if k := r.count(8); k > 0 {
				sd.T = make([]int, k)
				for j := range sd.T {
					sd.T[j] = r.i64()
				}
			}
		}
	}
	if r.err == nil {
		r.err = l.Validate(n)
	}
	return l
}
