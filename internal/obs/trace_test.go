package obs

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTraceSpansAndStats(t *testing.T) {
	tr := NewTrace("s1", 1, 3)
	done := tr.StartSpan("search", "")
	time.Sleep(time.Millisecond)
	done()
	tr.AddSpan("verify", "", 2*time.Millisecond, 3*time.Millisecond)
	tr.SetStat("knn_candidates", 12)
	tr.Finish(nil)

	if tr.Sensor != "s1" || len(tr.Horizons) != 2 {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Name != "search" || tr.Spans[0].Duration <= 0 {
		t.Fatalf("search span = %+v", tr.Spans[0])
	}
	if tr.Spans[1].OffsetS != 0.002 || tr.Spans[1].Duration != 0.003 {
		t.Fatalf("verify span = %+v", tr.Spans[1])
	}
	if tr.Stats["knn_candidates"] != 12 {
		t.Fatalf("stats = %v", tr.Stats)
	}
	if tr.TotalS <= 0 || tr.Error != "" {
		t.Fatalf("finish: total=%v err=%q", tr.TotalS, tr.Error)
	}
}

func TestTraceFinishError(t *testing.T) {
	tr := NewTrace("s")
	tr.Finish(errors.New("boom"))
	if tr.Error != "boom" {
		t.Fatalf("error = %q", tr.Error)
	}
}

func TestNilTraceNoOp(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x", "")()
	tr.AddSpan("y", "", 0, 0)
	tr.SetStat("z", 1)
	tr.Finish(nil)
}

func TestTraceStoreRing(t *testing.T) {
	st := NewTraceStore(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace("a", i)
		tr.Finish(nil)
		st.Add(tr)
	}
	got := st.Last("a", 0)
	if len(got) != 3 {
		t.Fatalf("ring kept %d, want 3", len(got))
	}
	// Newest first: horizons 4, 3, 2 survive.
	for i, want := range []int{4, 3, 2} {
		if got[i].Horizons[0] != want {
			t.Fatalf("Last[%d] horizon = %d, want %d", i, got[i].Horizons[0], want)
		}
	}
	if n := len(st.Last("a", 2)); n != 2 {
		t.Fatalf("Last(2) = %d traces", n)
	}
	if st.Last("missing", 0) != nil && len(st.Last("missing", 0)) != 0 {
		t.Fatal("unknown sensor must return empty")
	}
	st.Remove("a")
	if len(st.Last("a", 0)) != 0 {
		t.Fatal("Remove must drop the sensor's traces")
	}
}

func TestNilTraceStoreNoOp(t *testing.T) {
	var st *TraceStore
	st.Add(NewTrace("a"))
	if st.Last("a", 0) != nil {
		t.Fatal("nil store Last")
	}
	st.Remove("a")
}

func TestTraceStoreDefaultCapacity(t *testing.T) {
	st := NewTraceStore(0)
	for i := 0; i < DefaultTraceCapacity+5; i++ {
		tr := NewTrace("s")
		tr.Finish(nil)
		st.Add(tr)
	}
	if n := len(st.Last("s", 0)); n != DefaultTraceCapacity {
		t.Fatalf("default ring kept %d, want %d", n, DefaultTraceCapacity)
	}
}

// A trace that has left the ring must be collectable: the store's
// footprint is capacity traces per sensor however many forecasts the
// sensor has served. (Re-slicing the ring forward instead of shifting it
// down leaves dropped traces reachable in the backing array — up to
// another full capacity of them.)
func TestTraceStoreReleasesDroppedTraces(t *testing.T) {
	const capacity = 4
	st := NewTraceStore(capacity)
	var collected atomic.Int32
	for i := 0; i < 2*capacity; i++ {
		tr := NewTrace("s")
		runtime.SetFinalizer(tr, func(*Trace) { collected.Add(1) })
		tr.Finish(nil)
		st.Add(tr)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < capacity; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the %d dropped traces were collected", collected.Load(), capacity)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := len(st.Last("s", 0)); n != capacity {
		t.Fatalf("ring kept %d, want %d", n, capacity)
	}
}
