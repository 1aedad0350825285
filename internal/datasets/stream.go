package datasets

import (
	"fmt"
	"math/rand"
)

// Stream is the lazy, constant-memory face of the corpus generators:
// one per-sensor value stream, produced on demand. Where Generate
// materializes every series up front (fine for accuracy experiments
// over hundreds of sensors), a load generator synthesizing 10⁵–10⁶
// concurrent sensor streams cannot hold full histories in RAM — so a
// Stream carries only its generator state: the per-sensor personality
// parameters, a few floats of AR/burst state, and a single-word
// splitmix64 RNG, a few hundred bytes per sensor regardless of how
// many samples are drawn.
//
// Streams are deterministic per (kind, seed, sensor index): the same
// triple always yields the same value sequence, on any host, so a
// load generator and a verifier can regenerate identical traffic
// independently. The stream family is seeded differently from
// Generate (which keeps the heavyweight math/rand source for
// backwards-compatible corpora), so Stream values are not byte-equal
// to Generate values; both are stable within their own family.
//
// A Stream is not safe for concurrent use; callers owning many
// sensors guard each stream (or confine it to one goroutine).
type Stream struct {
	g stepper
}

// NewStream returns the lazy generator for sensor idx of the (kind,
// seed) corpus.
func NewStream(kind Kind, seed int64, idx int) (*Stream, error) {
	if kind < Road || kind > Net {
		return nil, fmt.Errorf("datasets: unknown kind %d", int(kind))
	}
	if idx < 0 {
		return nil, fmt.Errorf("datasets: negative sensor index %d", idx)
	}
	// splitmix64 gives every (seed, kind, idx) triple a well-mixed,
	// O(1)-state source; rand.New layers the float/normal machinery on
	// top without the ~5 KB state of the default math/rand source.
	src := &splitmix64{state: uint64(seed) ^ uint64(idx)*0x9E3779B97F4A7C15 ^ uint64(kind)<<56}
	src.nextState() // decorrelate adjacent sensor indices
	rng := rand.New(src)
	s := &Stream{}
	switch kind {
	case Road:
		s.g = newRoadGen(rng)
	case Mall:
		s.g = newMallGen(rng)
	case Net:
		s.g = newNetGen(rng)
	}
	return s, nil
}

// Next draws the next value of the series.
func (s *Stream) Next() float64 { return s.g.next() }

// Take draws the next n values — the idiom for bootstrapping a
// sensor's initial history before streaming the remainder one
// observation at a time.
func (s *Stream) Take(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// splitmix64 is a tiny rand.Source64: one uint64 of state, full
// 64-bit output, and good avalanche behaviour even for sequential
// seeds (Steele, Lea & Flood 2014) — which is exactly the access
// pattern here (sensor indices 0..N-1).
type splitmix64 struct{ state uint64 }

func (s *splitmix64) nextState() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Uint64() uint64 { return s.nextState() }

func (s *splitmix64) Int63() int64 { return int64(s.nextState() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }
