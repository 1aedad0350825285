package ingest

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"smiler/internal/wal"
)

// recorder is a Journal and an OnApplied hook that keep what they saw,
// in call order.
type recorder struct {
	mu                sync.Mutex
	journaled, hooked []wal.Record
	fail              bool // the journal refuses every append
}

func (r *recorder) journal(rec wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return errors.New("disk full")
	}
	r.journaled = append(r.journaled, rec)
	return nil
}

func (r *recorder) hook(rec wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooked = append(r.hooked, rec)
}

func (r *recorder) config(shards int) Config {
	return Config{Shards: shards, Journal: r.journal, OnApplied: r.hook}
}

// kinds renders records as "add s", "observe s", "remove s".
func kinds(recs []wal.Record) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.Type.String() + " " + rec.Sensor
	}
	return out
}

// ofSensor keeps the records of one sensor, in order.
func ofSensor(recs []wal.Record, id string) []wal.Record {
	var out []wal.Record
	for _, r := range recs {
		if r.Sensor == id {
			out = append(out, r)
		}
	}
	return out
}

// TestSensorLifecycleJournaled: a registration and a removal are
// journaled, applied and handed to the hook like an observation; a
// duplicate registration and the removal of an unknown sensor fail
// before the journal; none of them moves the observation counters.
func TestSensorLifecycleJournaled(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{}
	var rec recorder
	p := mustPipeline(t, sys, rec.config(2))

	if err := p.AddSensor("s", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSensor("s", []float64{3}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration: %v, want already registered", err)
	}
	if ok, err := p.Observe("s", 5); !ok || err != nil {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	if err := p.RemoveSensor("s"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveSensor("s"); err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("second removal: %v, want unknown sensor", err)
	}
	want := []string{"add-sensor s", "observe s", "remove-sensor s"}
	if got := kinds(rec.journaled); !slices.Equal(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	if got := kinds(rec.hooked); !slices.Equal(got, want) {
		t.Fatalf("hook = %v, want %v", got, want)
	}
	if h := rec.journaled[0].History; !slices.Equal(h, []float64{1, 2}) {
		t.Fatalf("journaled history = %v", h)
	}
	if sys.HasSensor("s") {
		t.Fatal("removed sensor still registered")
	}
	if st := p.Stats().Totals; st.Processed != 1 || st.Errors != 0 || st.JournalErrors != 0 {
		t.Fatalf("totals = %+v, want the one observation only", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSensor("t", []float64{1}); err != ErrClosed {
		t.Fatalf("registration after Close: %v, want ErrClosed", err)
	}
}

// TestRejectedRegistrationIsCompensated: a registration the system
// rejects after it was journaled is followed by a journaled removal, so
// a replay cannot resurrect it; the hook sees neither.
func TestRejectedRegistrationIsCompensated(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{}
	var rec recorder
	p := mustPipeline(t, sys, rec.config(1))
	if err := p.AddSensor("s", []float64{1, math.NaN()}); err == nil || errors.Is(err, ErrJournal) {
		t.Fatalf("registration with a NaN: %v, want the system's rejection", err)
	}
	if got, want := kinds(rec.journaled), []string{"add-sensor s", "remove-sensor s"}; !slices.Equal(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	if len(rec.hooked) != 0 || sys.HasSensor("s") {
		t.Fatalf("rejected registration applied: hook %v, registered %v", kinds(rec.hooked), sys.HasSensor("s"))
	}
}

// TestLifecycleJournalFailureChangesNothing: a registration or removal
// whose journal append fails is refused with ErrJournal and not
// applied.
func TestLifecycleJournalFailureChangesNothing(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{"s": true}
	rec := recorder{fail: true}
	p := mustPipeline(t, sys, rec.config(1))
	if err := p.AddSensor("t", []float64{1}); !errors.Is(err, ErrJournal) {
		t.Fatalf("registration with a failing journal: %v, want ErrJournal", err)
	}
	if err := p.RemoveSensor("s"); !errors.Is(err, ErrJournal) {
		t.Fatalf("removal with a failing journal: %v, want ErrJournal", err)
	}
	if sys.HasSensor("t") || !sys.HasSensor("s") || len(rec.hooked) != 0 {
		t.Fatalf("a write whose journal append failed was applied: t=%v s=%v hook=%v",
			sys.HasSensor("t"), sys.HasSensor("s"), kinds(rec.hooked))
	}
}

// TestWritesJournalInApplyOrder: goroutines race registrations,
// observations and removals of the same sensors. The journal and the
// post-apply hook see one sequence per sensor, it is a valid lifecycle (no
// observation or removal of an absent sensor, no registration of a
// present one), and replaying it yields the system's state.
func TestWritesJournalInApplyOrder(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{}
	var rec recorder
	p := mustPipeline(t, sys, rec.config(2))
	ids := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ids[(g+i)%len(ids)]
				switch (g + i*7) % 5 {
				case 0:
					p.AddSensor(id, []float64{float64(g)})
				case 4:
					p.RemoveSensor(id)
				default:
					p.Observe(id, float64(g*1000+i))
				}
			}
		}(g)
	}
	wg.Wait()
	// Sensors on different shards interleave freely; each sensor's own
	// sequence is what the lock orders.
	for _, id := range ids {
		j, h := ofSensor(rec.journaled, id), ofSensor(rec.hooked, id)
		if !slices.EqualFunc(j, h, func(a, b wal.Record) bool { return a.Type == b.Type && a.Value == b.Value }) {
			t.Fatalf("%s: journal (%d records) and hook (%d) saw different sequences", id, len(j), len(h))
		}
	}
	present := map[string]bool{}
	observed := map[string][]float64{}
	counts := map[wal.RecordType]int{}
	for i, r := range rec.journaled {
		counts[r.Type]++
		switch {
		case r.Type == wal.RecAddSensor && present[r.Sensor]:
			t.Fatalf("record %d registers %s, already present", i, r.Sensor)
		case r.Type != wal.RecAddSensor && !present[r.Sensor]:
			t.Fatalf("record %d (%s) targets %s, absent", i, r.Type, r.Sensor)
		}
		present[r.Sensor] = r.Type != wal.RecRemoveSensor
		if r.Type == wal.RecObserve {
			observed[r.Sensor] = append(observed[r.Sensor], r.Value)
		}
	}
	if counts[wal.RecAddSensor] == 0 || counts[wal.RecObserve] == 0 || counts[wal.RecRemoveSensor] == 0 {
		t.Fatalf("the race exercised too little: %v", counts)
	}
	for _, id := range ids {
		if present[id] != sys.HasSensor(id) {
			t.Errorf("%s: replay says present=%v, system says %v", id, present[id], sys.HasSensor(id))
		}
		if got := sys.sequence(id); !slices.Equal(got, observed[id]) {
			t.Errorf("%s: applied %d observations, journal holds %d", id, len(got), len(observed[id]))
		}
	}
	if st := p.Stats().Totals; st.Processed != uint64(counts[wal.RecObserve]) {
		t.Fatalf("processed %d, journaled observations %d", st.Processed, counts[wal.RecObserve])
	}
}
