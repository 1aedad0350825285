package smiler

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fillSeeded sets every field reachable from v to a seeded non-zero
// value: strings and slices non-empty, bools true, floats drawn from a
// mix that includes NaNs with payloads and infinities (not −0, which
// gob sends as an omitted zero and decodes as +0). A kind the
// spill codec has no encoding for fails the test, so a field added to
// sensorCheckpoint cannot slip past TestSpillCodecMatchesGob.
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
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSeeded(tb, v.Field(i), rng)
		}
	default:
		tb.Fatalf("fillSeeded: no seeded value for kind %s (%s): teach fillSeeded and encodeSpill/decodeSpill the new field", v.Kind(), v.Type())
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by their IEEE
// bits, so NaN payloads and −0 count.
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

func gobRoundTrip(t *testing.T, sc sensorCheckpoint) sensorCheckpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sc); err != nil {
		t.Fatal(err)
	}
	var out sensorCheckpoint
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpillCodecMatchesGob: the spill codec carries every field of
// sensorCheckpoint bit for bit — whatever a gob round trip (the
// checkpoint envelope) carries, a spill round trip carries too.
func TestSpillCodecMatchesGob(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		var sc sensorCheckpoint
		fillSeeded(t, reflect.ValueOf(&sc).Elem(), rand.New(rand.NewSource(seed)))
		got, err := decodeSpill(encodeSpill(sc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := gobRoundTrip(t, sc)
		if !bitsEqual(reflect.ValueOf(want), reflect.ValueOf(sc)) {
			t.Fatalf("seed %d: gob does not round-trip the filled value; fix fillSeeded", seed)
		}
		if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("seed %d: spill round trip\n%+v\ndiffers from gob round trip\n%+v", seed, got, want)
		}
	}
	// The zero value too: empty slices come back nil, as through gob.
	got, err := decodeSpill(encodeSpill(sensorCheckpoint{History: []float64{}}))
	if err != nil {
		t.Fatal(err)
	}
	if want := gobRoundTrip(t, sensorCheckpoint{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero value: spill %+v, gob %+v", got, want)
	}
	// Where gob loses a bit the spill keeps it: −0 stays −0, so a
	// faulted-in sensor holds exactly the values it was evicted with.
	negZero := math.Copysign(0, -1)
	got, err = decodeSpill(encodeSpill(sensorCheckpoint{History: []float64{negZero}}))
	if err != nil || math.Float64bits(got.History[0]) != math.Float64bits(negZero) {
		t.Fatalf("−0 round trip: %v, %v", got.History, err)
	}
}

// TestDecodeSpillRejectsDamage: every truncation and every flipped
// byte of a spill file is an error, never a panic or a partial value.
func TestDecodeSpillRejectsDamage(t *testing.T) {
	var sc sensorCheckpoint
	fillSeeded(t, reflect.ValueOf(&sc).Elem(), rand.New(rand.NewSource(9)))
	full := encodeSpill(sc)
	for n := 0; n < len(full); n++ {
		if _, err := decodeSpill(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded", n, len(full))
		}
	}
	for pos := range full {
		bad := append([]byte(nil), full...)
		bad[pos] ^= 0x10
		if _, err := decodeSpill(bad); err == nil {
			t.Fatalf("flipped byte %d decoded", pos)
		}
	}
}

// FuzzDecodeSpill: arbitrary bytes never panic the decoder, and any
// input it accepts re-encodes to exactly the same bytes. Each input is
// tried as a whole file and, behind a valid magic and checksum, as a
// payload, so the fuzzer reaches the field parser past the CRC.
func FuzzDecodeSpill(f *testing.F) {
	var sc sensorCheckpoint
	fillSeeded(f, reflect.ValueOf(&sc).Elem(), rand.New(rand.NewSource(3)))
	f.Add(encodeSpill(sc))
	f.Add(encodeSpill(sensorCheckpoint{}))
	f.Add(encodeSpill(sc)[spillHeaderLen:])
	f.Add([]byte("SMLRSPL1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		framed := make([]byte, spillHeaderLen, spillHeaderLen+len(b))
		copy(framed, spillMagic[:])
		binary.LittleEndian.PutUint32(framed[len(spillMagic):], crc32.Checksum(b, checkpointCRCTable))
		framed = append(framed, b...)
		for _, in := range [][]byte{b, framed} {
			sc, err := decodeSpill(in)
			if err != nil {
				continue
			}
			if out := encodeSpill(sc); !bytes.Equal(out, in) {
				t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(in), len(out))
			}
		}
	})
}
