package smiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// Spill files hold one cold sensor's sensorCheckpoint in a flat
// little-endian layout of their own, not the gob checkpoint envelope:
//
//	magic       [8]byte  "SMLRSPL1"
//	crc         uint32   CRC32C (checkpointCRCTable) of every byte after it
//	id          uint32 length, then the bytes
//	normalized  uint8 (0 or 1)
//	norm        float64 Mean, float64 Std
//	history     uint32 count, then count × float64
//	cells       uint32 count, then per cell:
//	              int64 K, int64 D, float64 Weight, uint8 Sleeping,
//	              int64 SleepLeft, int64 SleepSpan, uint8 WokeLately,
//	              float64 Signal, Length, Noise (gp.Hyper)
//
// Floats travel as their IEEE bits, so a spill round trip is bit-exact
// (NaN payloads and signed zeros included). A spill file is written
// with one plain os.WriteFile — no temp file, fsync or rename — because
// nothing recovers from it: the spill directory is wiped at New, and
// durability flows through checkpoints and the WAL. The checkpoint,
// migration and replication envelopes are gob (checkpoint.go); SaveTo
// and SaveSensorTo re-frame a decoded spill into them.
var spillMagic = [8]byte{'S', 'M', 'L', 'R', 'S', 'P', 'L', '1'}

const (
	spillHeaderLen = len(spillMagic) + 4
	// spillCellLen is one cell's fixed record: five 8-byte words of
	// CellState, two flag bytes, three 8-byte hyperparameters.
	spillCellLen = 5*8 + 2 + 3*8
)

var errSpillTruncated = errors.New("spill truncated")

// writeSpill writes one sensor's spill file.
func writeSpill(path string, sc sensorCheckpoint) error {
	return os.WriteFile(path, encodeSpill(sc), 0o644)
}

// readSpill loads one cold sensor's checkpoint entry from its spill
// file — the one spill reader, behind fault-in and the saves that fold
// cold sensors in. Callers hold s.mu (read side suffices).
func (s *System) readSpill(id string) (sensorCheckpoint, error) {
	b, err := os.ReadFile(s.tier.spillPath(id))
	if err != nil {
		return sensorCheckpoint{}, fmt.Errorf("smiler: reading spill for %q: %w", id, err)
	}
	sc, err := decodeSpill(b)
	if err != nil {
		return sensorCheckpoint{}, fmt.Errorf("smiler: reading spill for %q: %w", id, err)
	}
	if sc.ID != id {
		return sensorCheckpoint{}, fmt.Errorf("smiler: spill for %q holds sensor %q", id, sc.ID)
	}
	return sc, nil
}

// encodeSpill lays sc out in one buffer of exactly its encoded size.
func encodeSpill(sc sensorCheckpoint) []byte {
	n := spillHeaderLen + 4 + len(sc.ID) + 1 + 2*8 + 4 + 8*len(sc.History) + 4 + spillCellLen*len(sc.Cells)
	b := make([]byte, spillHeaderLen, n)
	copy(b, spillMagic[:])
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
	le.PutUint32(b[len(spillMagic):], crc32.Checksum(b[spillHeaderLen:], checkpointCRCTable))
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeSpill parses a spill file. The checksum is verified before a
// field is read, and the parse is strict — flags are 0 or 1, counts fit
// the bytes left, nothing trails the last cell — so every accepted
// input re-encodes to exactly its own bytes. Empty slices decode as nil,
// as they do through gob.
func decodeSpill(b []byte) (sensorCheckpoint, error) {
	var sc sensorCheckpoint
	if len(b) < spillHeaderLen {
		return sc, errSpillTruncated
	}
	if [8]byte(b[:len(spillMagic)]) != spillMagic {
		return sc, fmt.Errorf("not a spill file (bad magic %q)", b[:len(spillMagic)])
	}
	want := binary.LittleEndian.Uint32(b[len(spillMagic):])
	if got := crc32.Checksum(b[spillHeaderLen:], checkpointCRCTable); got != want {
		return sc, fmt.Errorf("spill corrupt: CRC %08x, want %08x", got, want)
	}
	r := spillReader{b: b[spillHeaderLen:]}
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
	if n := r.count(spillCellLen); n > 0 {
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
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("spill has %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return sensorCheckpoint{}, r.err
	}
	return sc, nil
}

// spillReader consumes a spill payload front to back; the first
// failure sticks and every later read returns zero.
type spillReader struct {
	b   []byte
	err error
}

func (r *spillReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errSpillTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *spillReader) u64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *spillReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *spillReader) i64() int { return int(int64(r.u64())) }

func (r *spillReader) flag() bool {
	p := r.next(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.err = fmt.Errorf("spill flag byte %d", p[0])
	}
	return p[0] == 1
}

// count reads a uint32 element count and rejects one whose elements of
// size bytes each cannot fit in what is left.
func (r *spillReader) count(size int) int {
	p := r.next(4)
	if p == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.err = errSpillTruncated
		return 0
	}
	return int(n)
}
