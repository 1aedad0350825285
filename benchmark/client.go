package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"smiler/internal/ingest"
	"smiler/internal/server"
)

// oracleOp is one entry of an oracle sensor's operation log: an
// observed value, or (h > 0) a forecast and the bits the server
// answered with.
type oracleOp struct {
	h        int
	value    float64 // observe: the value; forecast: the served mean
	variance float64
}

// span is one traced interval (choosing-metrics §4): name, start, end,
// the span that caused it, and the operation it belongs to.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // index into the span list, -1 = root
	Op      int     `json:"op"`
}

// phaseStats is what one client records over one phase.
type phaseStats struct {
	attempted, failed      int
	observations           int // applied (acked and drained) observations
	forecastMs, observeMs  []float64
	absErr, absPersistence float64 // MAE ratio numerator / denominator
	firstErr               error
	elapsed                time.Duration
	requests               int // HTTP requests on sensor-scoped routes (forward_ratio base)
	spans                  []span
}

func (p *phaseStats) fail(n int, err error) {
	p.failed += n
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// client is one closed-loop gateway: it owns a fixed share of the
// sensors, has one connection per node, and sends its next request only
// when the previous one has been answered.
type client struct {
	id      int
	sc      *script
	urls    []string
	hc      *http.Client
	rr      int // round-robin cursor over urls
	round   int // next round of the script
	sent    int // observations sent so far, warm-up included
	barrier bool
	oracle  map[int]*[]oracleOp // per oracle sensor owned by this client
	trace   bool
	epoch   time.Time // span time base
	st      *phaseStats
}

func newClient(id int, sc *script, cl *procSet, oracle map[int]*[]oracleOp) *client {
	c := &client{
		id: id, sc: sc, oracle: oracle,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		},
		st: new(phaseStats),
	}
	for _, n := range cl.nodes {
		c.urls = append(c.urls, n.url)
	}
	return c
}

// nextURL rotates over the nodes ignoring ownership hints, so on the
// replicated cluster two requests in three take a forward hop.
func (c *client) nextURL() string {
	u := c.urls[c.rr%len(c.urls)]
	c.rr++
	return u
}

// do sends one request and decodes a 2xx JSON body into out.
func (c *client) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// register adds this client's sensors with their histories.
func (c *client) register() error {
	for _, id := range c.sc.own[c.id] {
		body, err := json.Marshal(server.AddSensorRequest{ID: sensorID(id), History: c.sc.sensors[id].history})
		if err != nil {
			return err
		}
		if err := c.do(http.MethodPost, c.nextURL()+"/sensors", body, nil); err != nil {
			return err
		}
	}
	return nil
}

// drained is the barrier predicate on one node's /pipeline/stats: every
// accepted observation has been applied. A 200 on observe only means
// "enqueued" (ROADMAP item 5), so this is what makes a following
// forecast read its own write.
func drained(st ingest.Stats) bool {
	for _, sh := range st.PerShard {
		if sh.QueueDepth != 0 || sh.Processed < sh.Enqueued {
			return false
		}
	}
	return st.Totals.QueueDepth == 0 && st.Totals.Processed >= st.Totals.Enqueued
}

// waitDrained polls every node until its pipeline is drained.
func (c *client) waitDrained() error {
	for _, u := range c.urls {
		for {
			var st ingest.Stats
			if err := c.do(http.MethodGet, u+"/pipeline/stats", nil, &st); err != nil {
				return err
			}
			if drained(st) {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func (c *client) since(t time.Time) float64 {
	return float64(t.Sub(c.epoch).Nanoseconds()) / 1e3
}

// addSpan records one interval when tracing is on; it returns the
// span's index for children to name as parent.
func (c *client) addSpan(name string, start, end time.Time, parent, op int) int {
	if !c.trace {
		return -1
	}
	c.st.spans = append(c.st.spans, span{Name: name, StartUs: c.since(start), EndUs: c.since(end), Parent: parent, Op: op})
	return len(c.st.spans) - 1
}

// runRound plays one round of the script: observe sweep, drain barrier,
// forecast sweep. measured is false during warm-up, when only the
// oracle logs are kept.
func (c *client) runRound(measured bool) {
	ops := c.sc.round(c.id, c.round)
	op := c.id<<24 | c.round
	c.round++
	st := c.st
	roundStart := time.Now()
	root := c.addSpan("client.round", roundStart, roundStart, -1, op)
	defer c.closeRound(root)

	// Observe sweep: single POSTs, or bulk POSTs of spec.bulk items.
	sent := 0
	bulk := c.sc.spec.bulk
	var batch []ingest.Observation
	flush := func() {
		if len(batch) == 0 {
			return
		}
		body, _ := json.Marshal(server.BulkObserveRequest{Observations: batch})
		var res ingest.BulkResult
		t0 := time.Now()
		err := c.do(http.MethodPost, c.nextURL()+"/observations", body, &res)
		t1 := time.Now()
		c.addSpan("client.observe_bulk", t0, t1, root, op)
		if err == nil && (res.Accepted != len(batch) || res.Dropped != 0 || len(res.Failed) != 0) {
			err = fmt.Errorf("bulk observe: accepted %d of %d, dropped %d, failed %d", res.Accepted, len(batch), res.Dropped, len(res.Failed))
		}
		if measured {
			st.attempted += len(batch)
			if err != nil {
				st.fail(len(batch), err)
			} else {
				st.observeMs = append(st.observeMs, ms(t1.Sub(t0)))
			}
		}
		sent += len(batch)
		batch = batch[:0]
	}
	for _, id := range ops.observe {
		d := c.sc.sensors[id]
		v := d.value(d.pos)
		d.pos++
		if log := c.oracle[id]; log != nil {
			*log = append(*log, oracleOp{value: v})
		}
		if bulk > 0 {
			batch = append(batch, ingest.Observation{Sensor: sensorID(id), Value: v})
			if len(batch) == bulk {
				flush()
			}
			continue
		}
		t0 := time.Now()
		err := c.do(http.MethodPost, c.nextURL()+"/sensors/"+sensorID(id)+"/observe", observeBody(v), nil)
		t1 := time.Now()
		c.addSpan("client.observe", t0, t1, root, op)
		sent++
		if measured {
			st.attempted++
			st.requests++
			if err != nil {
				st.fail(1, err)
			} else {
				st.observeMs = append(st.observeMs, ms(t1.Sub(t0)))
			}
		}
	}
	flush()
	c.sent += sent
	if measured {
		st.observations += sent
	}
	if len(ops.forecasts) == 0 {
		return
	}

	if c.barrier {
		t0 := time.Now()
		err := c.waitDrained()
		c.addSpan("client.barrier", t0, time.Now(), root, op)
		if err != nil && measured {
			st.attempted++
			st.fail(1, err)
		}
	}

	for _, f := range ops.forecasts {
		d := c.sc.sensors[f.sensor]
		var fr server.ForecastResponse
		t0 := time.Now()
		err := c.do(http.MethodGet, fmt.Sprintf("%s/sensors/%s/forecast?h=%d", c.nextURL(), sensorID(f.sensor), f.h), nil, &fr)
		t1 := time.Now()
		c.addSpan("client.forecast", t0, t1, root, op)
		if err == nil {
			err = checkForecast(fr)
		}
		if log := c.oracle[f.sensor]; log != nil && err == nil {
			*log = append(*log, oracleOp{h: f.h, value: fr.Mean, variance: fr.Variance})
		}
		if !measured {
			continue
		}
		st.attempted++
		st.requests++
		if err != nil {
			st.fail(1, err)
			continue
		}
		st.forecastMs = append(st.forecastMs, ms(t1.Sub(t0)))
		// Score against the value realised h steps after the last
		// observation, next to the persistence forecast (last observed).
		truth := d.value(d.pos - 1 + f.h)
		st.absErr += math.Abs(fr.Mean - truth)
		st.absPersistence += math.Abs(d.value(d.pos-1) - truth)
	}
}

// closeRound stamps the round span's end once its children are in.
func (c *client) closeRound(root int) {
	if root >= 0 {
		c.st.spans[root].EndUs = c.since(time.Now())
	}
}

// checkForecast is the per-response correctness rule: an exact,
// non-degraded answer with a finite mean and a positive variance.
func checkForecast(fr server.ForecastResponse) error {
	switch {
	case fr.Degraded:
		return fmt.Errorf("forecast %s h=%d degraded (%s)", fr.ID, fr.Horizon, fr.DegradedReason)
	case fr.Quality != "exact":
		return fmt.Errorf("forecast %s h=%d quality %q", fr.ID, fr.Horizon, fr.Quality)
	case math.IsNaN(fr.Mean) || math.IsInf(fr.Mean, 0):
		return fmt.Errorf("forecast %s h=%d non-finite mean", fr.ID, fr.Horizon)
	case !(fr.Variance > 0) || math.IsInf(fr.Variance, 0):
		return fmt.Errorf("forecast %s h=%d variance %v", fr.ID, fr.Horizon, fr.Variance)
	}
	return nil
}

// observeBody is the POST /sensors/{id}/observe payload for one value,
// with every digit of the float so the server sees the exact bits.
func observeBody(v float64) []byte {
	return append(strconv.AppendFloat([]byte(`{"value":`), v, 'g', -1, 64), '}')
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runPhase plays rounds until the stop rule fires, then drains, and
// returns what was recorded. A positive rounds is a fixed op count (the
// same work on every run); otherwise rounds run until the deadline.
func (c *client) runPhase(measured bool, rounds int, deadline time.Time) *phaseStats {
	c.st = new(phaseStats)
	start := time.Now()
	for r := 0; ; r++ {
		if rounds > 0 {
			if r >= rounds {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		c.runRound(measured)
	}
	// The phase ends when the last observation has been applied, so
	// "observations per second" counts applied ones.
	if err := c.waitDrained(); err != nil && measured {
		c.st.attempted++
		c.st.fail(1, err)
	}
	c.st.elapsed = time.Since(start)
	return c.st
}
