package ingest

import (
	"fmt"
	"sync/atomic"
	"time"
)

// item is one queue entry: either an observation or a flush token.
// Flush tokens are how Drain observes progress without extra locks:
// the worker closes the token's channel once everything enqueued
// before it has been applied.
type item struct {
	obs   Observation
	at    time.Time
	flush chan struct{}
}

// shard is one ingestion worker: a bounded queue drained by a single
// goroutine, so observations for any given sensor (which always hash
// to the same shard) are applied in arrival order.
type shard struct {
	id int
	ch chan item

	enqueued    atomic.Uint64
	processed   atomic.Uint64
	errs        atomic.Uint64
	batches     atomic.Uint64
	latencyNs   atomic.Int64
	journalErrs atomic.Uint64
	panics      atomic.Uint64
}

func (sh *shard) snapshot() ShardStats {
	s := ShardStats{
		Shard:         sh.id,
		QueueDepth:    len(sh.ch),
		Enqueued:      sh.enqueued.Load(),
		Processed:     sh.processed.Load(),
		Errors:        sh.errs.Load(),
		Batches:       sh.batches.Load(),
		JournalErrors: sh.journalErrs.Load(),
		Panics:        sh.panics.Load(),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Processed) / float64(s.Batches)
	}
	if s.Processed > 0 {
		s.AvgLatencyMicros = float64(sh.latencyNs.Load()) / 1e3 / float64(s.Processed)
	}
	return s
}

// worker drains the shard queue in micro-batches until the channel is
// closed, then exits — which is what makes Close a drain: everything
// accepted before the close is applied first.
func (p *Pipeline) worker(sh *shard) {
	defer p.wg.Done()
	batch := make([]item, 0, maxBatch)
	for first := range sh.ch {
		batch = append(batch[:0], first)
		// Opportunistically gather whatever else is already queued, up
		// to maxBatch, without blocking: micro-batching amortizes the
		// scheduling cost per observation under load while adding no
		// latency when traffic is light.
	gather:
		for len(batch) < maxBatch {
			select {
			case it, ok := <-sh.ch:
				if !ok {
					break gather // closed; range exits after this batch
				}
				batch = append(batch, it)
			default:
				break gather
			}
		}
		sh.batches.Add(1)
		for _, it := range batch {
			if it.flush != nil {
				close(it.flush)
				continue
			}
			p.applyItem(sh, it)
			sh.processed.Add(1)
			sh.latencyNs.Add(time.Since(it.at).Nanoseconds())
		}
	}
}

// applyItem journals and applies one observation with a panic guard:
// a panic in the journal or the apply (a bug or an injected fault)
// becomes one errored observation, never a dead shard worker — every
// sensor hashed onto this shard would silently stop ingesting
// otherwise.
func (p *Pipeline) applyItem(sh *shard, it item) {
	defer func() {
		if r := recover(); r != nil {
			sh.panics.Add(1)
			sh.errs.Add(1)
			if p.cfg.OnError != nil {
				p.cfg.OnError(it.obs, fmt.Errorf("ingest: recovered panic applying observation: %v", r))
			}
		}
	}()
	if p.cfg.Journal != nil {
		if err := p.cfg.Journal(sh.id, it.obs.Sensor, it.obs.Value); err != nil {
			sh.journalErrs.Add(1)
			if p.cfg.OnError != nil {
				p.cfg.OnError(it.obs, fmt.Errorf("ingest: journal failed (observation still applied): %w", err))
			}
		}
	}
	if err := p.sys.Observe(it.obs.Sensor, it.obs.Value); err != nil {
		sh.errs.Add(1)
		if p.cfg.OnError != nil {
			p.cfg.OnError(it.obs, err)
		}
		return
	}
	if fn := p.onApplied.Load(); fn != nil {
		(*fn)(it.obs)
	}
}
