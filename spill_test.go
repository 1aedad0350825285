package smiler

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"smiler/internal/core"
	"smiler/internal/timeseries"
)

// fillSeeded sets every field reachable from v to a seeded non-zero
// value: strings, slices and maps non-empty, bools true, floats drawn
// from a mix that includes NaNs with payloads and infinities (−0 has
// its own check). A kind the checkpoint codec has no encoding for fails
// the test, so a field added to checkpoint or sensorCheckpoint cannot
// slip past TestCheckpointCodecRoundTrip.
func fillSeeded(tb testing.TB, v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.String:
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		n := rng.Int63() - rng.Int63()
		if n == 0 {
			n = 1
		}
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint(rng.Uint64() | 1)
	case reflect.Float64:
		var f float64
		switch rng.Intn(4) {
		case 0:
			f = math.Float64frombits(0x7ff0_0000_0000_0000 | rng.Uint64()&0x800f_ffff_ffff_ffff | 1) // NaN, payload and sign drawn
		case 1:
			f = math.Inf(1 - 2*rng.Intn(2))
		default:
			f = (0.5 + rng.Float64()) * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(2) == 0 {
				f = -f
			}
		}
		v.SetFloat(f)
	case reflect.Slice:
		n := 1 + rng.Intn(5)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillSeeded(tb, v.Index(i), rng)
		}
	case reflect.Map:
		n := 1 + rng.Intn(5)
		v.Set(reflect.MakeMapWithSize(v.Type(), n))
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fillSeeded(tb, k, rng)
			fillSeeded(tb, e, rng)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSeeded(tb, v.Field(i), rng)
		}
	default:
		tb.Fatalf("fillSeeded: no seeded value for kind %s (%s): teach fillSeeded and encodeCheckpoint/decodeCheckpoint the new field", v.Kind(), v.Type())
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by their IEEE
// bits, so NaN payloads and −0 count, and maps by their entries, so an
// empty map equals a nil one.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !bitsEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// frame wraps body in a checkpoint header: magic, then the CRC32C of
// body.
func frame(magic [8]byte, body []byte) []byte {
	b := make([]byte, checkpointHeaderLen, checkpointHeaderLen+len(body))
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[len(magic):], crc32.Checksum(body, checkpointCRCTable))
	return append(b, body...)
}

func decodeOrFatal(t *testing.T, what string, b []byte) checkpoint {
	t.Helper()
	cp, err := decodeCheckpoint(b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return cp
}

// seededCheckpoint fills a whole checkpoint (sensors and WAL cover)
// from seed.
func seededCheckpoint(tb testing.TB, seed int64) checkpoint {
	var cp checkpoint
	fillSeeded(tb, reflect.ValueOf(&cp).Elem(), rand.New(rand.NewSource(seed)))
	return cp
}

// TestCheckpointCodecRoundTrip: the one codec carries every field of a
// checkpoint bit for bit, NaN payloads and −0 included, so a
// faulted-in or migrated sensor holds exactly the values it left with.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		cp := seededCheckpoint(t, seed)
		if flat := decodeOrFatal(t, "flat", encodeCheckpoint(cp)); !bitsEqual(reflect.ValueOf(flat), reflect.ValueOf(cp)) {
			t.Fatalf("seed %d: flat round trip\n%+v\ndiffers from the filled value\n%+v", seed, flat, cp)
		}
	}
	// The zero values too: empty slices and an empty cover come back
	// nil.
	empty := checkpoint{Sensors: []sensorCheckpoint{{History: []float64{}}}, WALCover: map[int]uint64{}}
	flat := decodeOrFatal(t, "flat", encodeCheckpoint(empty))
	if flat.WALCover != nil || flat.Sensors[0].History != nil {
		t.Fatalf("zero value: flat %+v, want nil cover and history", flat)
	}
	if got := decodeOrFatal(t, "flat", encodeCheckpoint(checkpoint{})); !reflect.DeepEqual(got, checkpoint{}) {
		t.Fatalf("empty checkpoint decodes to %+v", got)
	}
	negZero := math.Copysign(0, -1)
	got := decodeOrFatal(t, "flat", encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{{History: []float64{negZero}}}}))
	if math.Float64bits(got.Sensors[0].History[0]) != math.Float64bits(negZero) {
		t.Fatalf("−0 round trip: %v", got.Sensors[0].History)
	}
}

// TestDecodeSpillRejectsDamage: every truncation and every flipped
// byte of an encoding — a multi-sensor checkpoint with a cover, and a
// one-sensor spill file — is an error, never a panic or a partial
// value.
func TestDecodeSpillRejectsDamage(t *testing.T) {
	cp := seededCheckpoint(t, 9)
	spill := checkpoint{Sensors: cp.Sensors[:1]}
	for _, full := range [][]byte{encodeCheckpoint(cp), encodeCheckpoint(spill)} {
		for n := 0; n < len(full); n++ {
			if _, err := decodeCheckpoint(full[:n]); err == nil {
				t.Fatalf("truncation at %d/%d decoded", n, len(full))
			}
		}
		for pos := range full {
			bad := append([]byte(nil), full...)
			bad[pos] ^= 0x10
			if _, err := decodeCheckpoint(bad); err == nil {
				t.Fatalf("flipped byte %d decoded", pos)
			}
		}
	}
	// Shards out of order or repeated are damage too, CRC or not: a
	// re-encode would not give the same bytes back.
	for _, shards := range [][2]uint64{{2, 1}, {3, 3}} {
		body := binary.LittleEndian.AppendUint32(nil, 2)
		for _, sh := range shards {
			body = binary.LittleEndian.AppendUint64(body, sh)
			body = binary.LittleEndian.AppendUint64(body, 7)
		}
		body = binary.LittleEndian.AppendUint32(body, 0)
		if _, err := decodeCheckpoint(frame(checkpointMagic, body)); err == nil {
			t.Fatalf("cover shards %v decoded", shards)
		}
	}
}

// FuzzDecodeSpill: arbitrary bytes never panic the one decoder, every
// input it accepts starts with SMLRCKP3 or SMLRCKP2, an SMLRCKP3 one
// re-encodes to exactly the same bytes, and an SMLRCKP2 one holds no
// pending set and re-encodes to the same state. Each input is tried as
// a whole file and, behind a valid header of either version, as a body,
// so the fuzzer reaches the field parser past the CRC.
func FuzzDecodeSpill(f *testing.F) {
	// Small seeds: a one-sensor spill file, and a two-sensor checkpoint
	// with a cover. The fuzzer minimizes every new input it keeps, at a
	// cost quadratic in its length, so large seeds leave it minimizing
	// instead of mutating.
	a := sensorCheckpoint{ID: "a", History: []float64{1, -0.5}, Normalized: true, Norm: timeseries.Stats{Mean: 2, Std: 3},
		Cells: []cellCheckpoint{{State: core.CellState{K: 4, D: 16, Weight: 1, SleepSpan: 1}}},
		Pending: []core.PendingState{{Target: 2, H: 1, Exact: true, Mixed: core.Prediction{Mean: 1, Variance: 2},
			Cells: []core.PendingCell{{K: 4, D: 16, Pred: core.Prediction{Mean: 1, Variance: 2}}}}}}
	spill := encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{a}})
	multi := encodeCheckpoint(checkpoint{
		Sensors:  []sensorCheckpoint{a, {ID: "b", History: []float64{math.NaN()}}},
		WALCover: map[int]uint64{0: 3, 2: 9},
	})
	a.Pending = nil
	v2 := encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{a}})
	v2 = v2[checkpointHeaderLen : len(v2)-4] // no pending count
	for _, seed := range [][]byte{spill, spill[checkpointHeaderLen:], multi, multi[checkpointHeaderLen:],
		encodeCheckpoint(checkpoint{}), frame(checkpointMagicV2, v2), v2, []byte("SMLRCKP1")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, frame(checkpointMagic, b), frame(checkpointMagicV2, b)} {
			cp, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			switch magic := [8]byte(in[:8]); magic {
			case checkpointMagic:
				if out := encodeCheckpoint(cp); !bytes.Equal(out, in) {
					t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(in), len(out))
				}
			case checkpointMagicV2:
				for _, sc := range cp.Sensors {
					if sc.Pending != nil {
						t.Fatalf("an SMLRCKP2 input decoded a pending set")
					}
				}
				if again, err := decodeCheckpoint(encodeCheckpoint(cp)); err != nil || !bitsEqual(reflect.ValueOf(again), reflect.ValueOf(cp)) {
					t.Fatalf("an SMLRCKP2 input does not re-encode to its state: %v", err)
				}
			default:
				t.Fatalf("accepted an input with magic %q", magic[:])
			}
		}
	})
}

// TestCheckpointV2ReadsWithNoPending: the layout before the pending set
// still loads, every other field bit for bit, with no queued answers;
// an SMLRCKP3 body behind the SMLRCKP2 magic is refused.
func TestCheckpointV2ReadsWithNoPending(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		cp := seededCheckpoint(t, seed)
		cp.Sensors = cp.Sensors[:1]
		cp.Sensors[0].Pending = nil
		b := encodeCheckpoint(cp)
		got := decodeOrFatal(t, "SMLRCKP2", frame(checkpointMagicV2, b[checkpointHeaderLen:len(b)-4]))
		if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(cp)) {
			t.Fatalf("seed %d: SMLRCKP2 read\n%+v\ndiffers from\n%+v", seed, got, cp)
		}
		if _, err := decodeCheckpoint(frame(checkpointMagicV2, b[checkpointHeaderLen:])); err == nil {
			t.Fatalf("seed %d: an SMLRCKP3 body decoded behind the SMLRCKP2 magic", seed)
		}
	}
}
