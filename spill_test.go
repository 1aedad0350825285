package smiler

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"smiler/internal/core"
	"smiler/internal/index"
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
	case reflect.Float32:
		v.SetFloat(float64(float32((0.5 + rng.Float64()) * math.Pow(10, float64(rng.Intn(20)-10)))))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillSeeded(tb, v.Elem(), rng)
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
	case reflect.Float32:
		return math.Float32bits(a.Interface().(float32)) == math.Float32bits(b.Interface().(float32))
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
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
	rng := rand.New(rand.NewSource(seed))
	fillSeeded(tb, reflect.ValueOf(&cp).Elem(), rng)
	for i := range cp.Sensors {
		fitLevel(&cp.Sensors[i], rng)
	}
	return cp
}

// fitLevel makes a seeded sensor's level one its record could hold (the
// decoder refuses any other): a small shape, a history long enough for
// it, planes and envelopes of the sizes synced implies, drawn from the
// seeded values, and seeds at positions the history has. Every field
// keeps a seeded value, so a field the codec drops still fails the
// round trip.
func fitLevel(sc *sensorCheckpoint, rng *rand.Rand) {
	l := sc.Level
	l.Omega = 2 + rng.Intn(3)
	l.Rho = rng.Intn(4)
	l.DMax = 2*l.Omega + 4 + rng.Intn(3)
	for len(sc.History) < l.DMax+l.Omega+rng.Intn(2*l.Omega) {
		sc.History = append(sc.History, rng.NormFloat64())
	}
	n := len(sc.History)
	l.Synced = l.DMax + l.Omega + rng.Intn(n-l.DMax-l.Omega+1)
	nDW := l.Synced / l.Omega
	resize := func(vs []float32, n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = vs[i%len(vs)] * float32(1+i)
		}
		return out
	}
	plane := func(rows [][]float32) [][]float32 {
		flat := slices.Concat(rows...)
		out := make([][]float32, l.DMax-l.Omega+1)
		for b := range out {
			out[b] = resize(flat[b%len(flat):], nDW)
		}
		return out
	}
	l.EQ, l.EC = plane(l.EQ), plane(l.EC)
	l.EnvU, l.EnvL = resize(l.EnvU, nDW*l.Omega), resize(l.EnvL, nDW*l.Omega)
	for i := range l.EnvL {
		l.EnvL[i] = -l.EnvL[i]
	}
	for i := range l.Seeds {
		sd := &l.Seeds[i]
		sd.D = l.Omega + i
		for j := range sd.T {
			sd.T[j] = rng.Intn(n - sd.D + 1)
		}
	}
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

// tinyLevelSensor is a one-sensor record small enough to seed the
// fuzzer with, holding a level its history could hold: ω=2, ρ=1,
// d_max=3 over 6 points, synced 5.
func tinyLevelSensor() sensorCheckpoint {
	return sensorCheckpoint{ID: "c", History: []float64{1, 2, 0.5, -1, 3, 2.5},
		Level: &index.Level{Omega: 2, Rho: 1, DMax: 3, Synced: 5,
			EQ: [][]float32{{0, 1}, {2, 0.5}}, EC: [][]float32{{0.25, 0}, {3, 1}},
			EnvU: []float32{2, 2, 1, 3}, EnvL: []float32{0.5, -1, -1, -1},
			Seeds: []index.Seeds{{D: 3, T: []int{0, 2}}}}}
}

// FuzzDecodeSpill: arbitrary bytes never panic the one decoder, every
// input it accepts starts with SMLRCKP4 or SMLRCKP3, an SMLRCKP4 one
// re-encodes to exactly the same bytes, and an SMLRCKP3 one holds no
// level and re-encodes to the same state. Each input is tried as a whole
// file and, behind a valid header of either version, as a body, so the
// fuzzer reaches the field parser past the CRC.
func FuzzDecodeSpill(f *testing.F) {
	// Small seeds: one-sensor spill files with and without a level, and a
	// two-sensor checkpoint with a cover. The fuzzer minimizes every new
	// input it keeps, at a cost quadratic in its length, so large seeds
	// leave it minimizing instead of mutating.
	a := sensorCheckpoint{ID: "a", History: []float64{1, -0.5}, Normalized: true, Norm: timeseries.Stats{Mean: 2, Std: 3},
		Cells: []cellCheckpoint{{State: core.CellState{K: 4, D: 16, Weight: 1, SleepSpan: 1}}},
		Pending: []core.PendingState{{Target: 2, H: 1, Exact: true, Mixed: core.Prediction{Mean: 1, Variance: 2},
			Cells: []core.PendingCell{{K: 4, D: 16, Pred: core.Prediction{Mean: 1, Variance: 2}}}}}}
	spill := encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{a}})
	leveled := encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{tinyLevelSensor()}})
	multi := encodeCheckpoint(checkpoint{
		Sensors:  []sensorCheckpoint{a, {ID: "b", History: []float64{math.NaN()}}},
		WALCover: map[int]uint64{0: 3, 2: 9},
	})
	v3 := spill[checkpointHeaderLen : len(spill)-1] // no level flag
	for _, seed := range [][]byte{spill, spill[checkpointHeaderLen:], leveled, leveled[checkpointHeaderLen:],
		multi, multi[checkpointHeaderLen:], encodeCheckpoint(checkpoint{}), frame(checkpointMagicV3, v3), v3,
		[]byte("SMLRCKP2"), []byte("SMLRCKP1")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, frame(checkpointMagic, b), frame(checkpointMagicV3, b)} {
			cp, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			switch magic := [8]byte(in[:8]); magic {
			case checkpointMagic:
				if out := encodeCheckpoint(cp); !bytes.Equal(out, in) {
					t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(in), len(out))
				}
			case checkpointMagicV3:
				for _, sc := range cp.Sensors {
					if sc.Level != nil {
						t.Fatalf("an SMLRCKP3 input decoded a level")
					}
				}
				if again, err := decodeCheckpoint(encodeCheckpoint(cp)); err != nil || !bitsEqual(reflect.ValueOf(again), reflect.ValueOf(cp)) {
					t.Fatalf("an SMLRCKP3 input does not re-encode to its state: %v", err)
				}
			default:
				t.Fatalf("accepted an input with magic %q", magic[:])
			}
		}
	})
}

// TestCheckpointV3ReadsWithNoLevel: the layout before the level section
// still loads, every other field bit for bit, with no level; an SMLRCKP4
// body behind the SMLRCKP3 magic is refused, and so is any body behind
// the SMLRCKP2 magic, at the magic.
func TestCheckpointV3ReadsWithNoLevel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		cp := seededCheckpoint(t, seed)
		cp.Sensors = cp.Sensors[:1]
		cp.Sensors[0].Level = nil
		b := encodeCheckpoint(cp)
		v3 := b[checkpointHeaderLen : len(b)-1] // no level flag
		got := decodeOrFatal(t, "SMLRCKP3", frame(checkpointMagicV3, v3))
		if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(cp)) {
			t.Fatalf("seed %d: SMLRCKP3 read\n%+v\ndiffers from\n%+v", seed, got, cp)
		}
		if _, err := decodeCheckpoint(frame(checkpointMagicV3, b[checkpointHeaderLen:])); err == nil {
			t.Fatalf("seed %d: an SMLRCKP4 body decoded behind the SMLRCKP3 magic", seed)
		}
		v2 := [8]byte{'S', 'M', 'L', 'R', 'C', 'K', 'P', '2'}
		if _, err := decodeCheckpoint(frame(v2, v3[:len(v3)-4])); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("seed %d: an SMLRCKP2 file: err = %v, want a bad-magic error", seed, err)
		}
	}
}

// TestDecodeRefusesContradictoryLevel: a level section that its own
// record could not hold is refused at decode, CRC-valid or not, and the
// refusal allocates little whatever the section claims: planes of the
// wrong size, a synced past the history or short of d_max+ω, a seed
// position no segment starts at, a bound that is NaN or negative, an
// upper envelope below the lower one, and a count the bytes left cannot
// hold.
func TestDecodeRefusesContradictoryLevel(t *testing.T) {
	base := func() sensorCheckpoint {
		hist := make([]float64, 40)
		for i := range hist {
			hist[i] = math.Sin(float64(i) / 3)
		}
		nSW, nDW := 9-4+1, 36/4
		plane := func() [][]float32 {
			out := make([][]float32, nSW)
			for b := range out {
				out[b] = make([]float32, nDW)
				for r := range out[b] {
					out[b][r] = float32(b*nDW+r) / 8
				}
			}
			return out
		}
		envU, envL := make([]float32, 4*nDW), make([]float32, 4*nDW)
		for i := range envU {
			envU[i], envL[i] = 1, -1
		}
		return sensorCheckpoint{ID: "s", History: hist, Level: &index.Level{
			Omega: 4, Rho: 2, DMax: 9, Synced: 36, EQ: plane(), EC: plane(), EnvU: envU, EnvL: envL,
			Seeds: []index.Seeds{{D: 7, T: []int{0, 12}}, {D: 9, T: []int{3}}}}}
	}
	encode := func(sc sensorCheckpoint) []byte {
		return encodeCheckpoint(checkpoint{Sensors: []sensorCheckpoint{sc}})
	}
	good := encode(base())
	if cp := decodeOrFatal(t, "the unspoiled record", good); !bitsEqual(reflect.ValueOf(cp.Sensors[0]), reflect.ValueOf(base())) {
		t.Fatal("the unspoiled record does not round-trip")
	}
	noLevel := base()
	noLevel.Level = nil
	start := len(encode(noLevel)) // the level section, past its flag
	eqCount := start + 4*8
	seedsCount := eqCount + 4*4 + 4*(2*6*9+2*4*9)
	recount := func(off int, n uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[off:], n)
		return frame(checkpointMagic, b[checkpointHeaderLen:])
	}
	spoil := func(f func(l *index.Level, sc *sensorCheckpoint)) []byte {
		sc := base()
		f(sc.Level, &sc)
		return encode(sc)
	}
	cases := map[string][]byte{
		"EQ a row short":            spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EQ = l.EQ[1:] }),
		"EQ row one short":          spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EQ[2] = l.EQ[2][1:] }),
		"EC one long":               spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EC[0] = append(l.EC[0], 0) }),
		"EC a row long":             spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EC = append(l.EC, make([]float32, 9)) }),
		"envelope one short":        spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EnvL = l.EnvL[1:] }),
		"synced past the history":   spoil(func(_ *index.Level, sc *sensorCheckpoint) { sc.History = sc.History[:35] }),
		"synced under d_max+ω":      spoil(func(l *index.Level, _ *sensorCheckpoint) { l.Synced, l.DMax = 12, 9 }),
		"seed past len(history)−d":  spoil(func(l *index.Level, _ *sensorCheckpoint) { l.Seeds[1].T[0] = 40 - 9 + 1 }),
		"negative seed":             spoil(func(l *index.Level, _ *sensorCheckpoint) { l.Seeds[0].T[1] = -1 }),
		"seeds out of order":        spoil(func(l *index.Level, _ *sensorCheckpoint) { l.Seeds[0].D, l.Seeds[1].D = 9, 7 }),
		"NaN bound":                 spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EC[4][5] = float32(math.NaN()) }),
		"negative bound":            spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EQ[0][5] = -0.5 }),
		"upper below lower":         spoil(func(l *index.Level, _ *sensorCheckpoint) { l.EnvU[3] = -2 }),
		"EQ count past the bytes":   recount(eqCount, 1<<30),
		"seed count past the bytes": recount(seedsCount, 1<<28),
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeCheckpoint(in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Fatalf("%s: allocated %d bytes refusing a %d-byte record", name, n, len(in))
		}
	}
}
