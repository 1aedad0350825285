package datasets

import (
	"math"
	"testing"
)

func TestStreamDeterministicPerSensor(t *testing.T) {
	for _, kind := range []Kind{Road, Mall, Net} {
		a, err := NewStream(kind, 42, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStream(kind, 42, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if av, bv := a.Next(), b.Next(); av != bv {
				t.Fatalf("%v: stream not deterministic at %d: %v vs %v", kind, i, av, bv)
			}
		}
	}
}

func TestStreamDistinctSensorsDiffer(t *testing.T) {
	a, _ := NewStream(Road, 1, 0)
	b, _ := NewStream(Road, 1, 1)
	c, _ := NewStream(Road, 2, 0)
	av, bv, cv := a.Take(200), b.Take(200), c.Take(200)
	sameAB, sameAC := true, true
	for i := range av {
		if av[i] != bv[i] {
			sameAB = false
		}
		if av[i] != cv[i] {
			sameAC = false
		}
	}
	if sameAB {
		t.Fatal("adjacent sensor indices must produce distinct streams")
	}
	if sameAC {
		t.Fatal("different seeds must produce distinct streams")
	}
}

func TestStreamTakeThenNextContinues(t *testing.T) {
	// Take(n) then Next must equal a fresh stream read linearly: the
	// benchmark bootstraps history with Take and then streams observations
	// as a continuation of the same series.
	a, _ := NewStream(Net, 9, 3)
	b, _ := NewStream(Net, 9, 3)
	hist := a.Take(128)
	lin := b.Take(130)
	for i := range hist {
		if hist[i] != lin[i] {
			t.Fatalf("Take diverges at %d", i)
		}
	}
	if a.Next() != lin[128] || a.Next() != lin[129] {
		t.Fatal("Next after Take must continue the same series")
	}
}

func TestStreamValuesShapedLikeCorpus(t *testing.T) {
	// Spot-check the stream steppers inherit the corpus invariants.
	road, _ := NewStream(Road, 3, 11)
	for i := 0; i < 2*Road.SamplesPerDay(); i++ {
		v := road.Next()
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("road occupancy %v out of [0,1]", v)
		}
	}
	net, _ := NewStream(Net, 3, 11)
	for i := 0; i < 2*Net.SamplesPerDay(); i++ {
		if v := net.Next(); v <= 0 {
			t.Fatalf("non-positive traffic %v", v)
		}
	}
	mall, _ := NewStream(Mall, 3, 11)
	for i := 0; i < 2*Mall.SamplesPerDay(); i++ {
		if v := mall.Next(); v < 0 {
			t.Fatalf("negative availability %v", v)
		}
	}
}

func TestStreamRejectsBadArgs(t *testing.T) {
	if _, err := NewStream(Kind(9), 1, 0); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, err := NewStream(Road, 1, -1); err == nil {
		t.Fatal("negative index must error")
	}
}
