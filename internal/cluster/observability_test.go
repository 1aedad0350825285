package cluster_test

import (
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"smiler/internal/obs"
	"smiler/internal/server"
)

// traceWithID scans a node's /debug/trace/{sensor} answer for a trace
// carrying the distributed trace id. Returns nil when absent (or when
// the node does not know the sensor yet).
func traceWithID(t *testing.T, baseURL, sensor, traceID string) *obs.Trace {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/trace/" + sensor)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var traces []*obs.Trace
	if err := jsonDecode(resp.Body, &traces); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.TraceID == traceID {
			return tr
		}
	}
	return nil
}

func spanNames(tr *obs.Trace) []string {
	names := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	return names
}

func hasSpan(tr *obs.Trace, name string) bool {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestClusterTracePropagation: a forecast entering through a non-owner
// is one distributed trace. The entry node's hop trace shows the
// forward span with the owner's phase spans inlined; the owner's
// prediction trace carries the same trace id at hop 1.
func TestClusterTracePropagation(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "trace-sensor"
	hist := seasonal(rand.New(rand.NewSource(21)), 420)

	owner := ownerOf(t, nodes, sensor)
	entry := nonOwnerOf(t, nodes, sensor)
	cl, err := server.NewClient(entry.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}
	if !owner.sys.HasSensor(sensor) {
		t.Fatal("registration did not reach the owner")
	}

	// Forecast through the entry node; the response echoes the minted
	// trace context.
	resp, err := http.Get(entry.ts.URL + "/sensors/" + sensor + "/forecast?h=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded forecast: HTTP %d", resp.StatusCode)
	}
	header := resp.Header.Get(obs.TraceHeader)
	tc, ok := obs.ParseTraceContext(header)
	if !ok {
		t.Fatalf("response %s header %q did not parse", obs.TraceHeader, header)
	}
	if tc.Hop != 0 {
		t.Fatalf("entry-minted trace hop = %d, want 0 (%q)", tc.Hop, header)
	}

	// Entry node: a hop trace with the forward span, owner spans inlined.
	var entryTr *obs.Trace
	waitFor(t, 5*time.Second, "forward hop trace on the entry node", func() bool {
		entryTr = traceWithID(t, entry.ts.URL, sensor, tc.ID)
		return entryTr != nil
	})
	if !hasSpan(entryTr, "forward") {
		t.Fatalf("entry trace has no forward span: %v", spanNames(entryTr))
	}
	if entryTr.Node != entry.id {
		t.Fatalf("entry trace node = %q, want %q", entryTr.Node, entry.id)
	}
	// The owner answered with a span summary, so the entry trace holds
	// more than the forward span alone: the owner's phases are inlined.
	if len(entryTr.Spans) < 2 {
		t.Fatalf("owner spans not inlined on the entry trace: %v", spanNames(entryTr))
	}

	// Owner node: its own prediction trace under the same trace id,
	// one hop downstream of the entry.
	var ownerTr *obs.Trace
	waitFor(t, 5*time.Second, "prediction trace on the owner node", func() bool {
		ownerTr = traceWithID(t, owner.ts.URL, sensor, tc.ID)
		return ownerTr != nil
	})
	if ownerTr.Hop != 1 {
		t.Fatalf("owner trace hop = %d, want 1", ownerTr.Hop)
	}
	if ownerTr.Node != owner.id {
		t.Fatalf("owner trace node = %q, want %q", ownerTr.Node, owner.id)
	}
	if len(ownerTr.Spans) == 0 {
		t.Fatal("owner trace has no phase spans")
	}
}

// eventsOf pulls a node's flight-recorder ring.
func eventsOf(t *testing.T, baseURL string) []obs.Event {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/events")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var er server.EventsResponse
	if err := jsonDecode(resp.Body, &er); err != nil {
		t.Fatal(err)
	}
	return er.Events
}

func hasEvent(evs []obs.Event, typ string, match func(obs.Event) bool) bool {
	for _, ev := range evs {
		if ev.Type == typ && (match == nil || match(ev)) {
			return true
		}
	}
	return false
}

// TestClusterEventsFailover: the flight recorder captures the
// cluster's control-plane incidents — when a member dies, the
// survivors record the failover at error severity.
func TestClusterEventsFailover(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	victim, survivor := nodes[2], nodes[0]
	victim.ts.Close()
	waitFor(t, 5*time.Second, "failover event on a survivor", func() bool {
		return hasEvent(eventsOf(t, survivor.ts.URL), "failover", func(ev obs.Event) bool {
			return strings.Contains(ev.Detail, victim.id) && ev.Severity == obs.SevError
		})
	})
}
