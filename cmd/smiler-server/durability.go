// Durability wiring for smiler-server: WAL recovery at startup, the
// journal hooks that keep the WAL ahead of applied state, and the WAL
// metrics. See docs/ROBUSTNESS.md for the failure model.
package main

import (
	"fmt"
	"log/slog"
	"runtime"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/obs"
	"smiler/internal/wal"
)

// walShards resolves the log count requested for a fresh WAL
// directory: the -shards value (default GOMAXPROCS). A directory that
// already holds logs pins its own count in a meta file, which
// OpenManager reuses regardless of this value — sensor→log placement
// must not move while records for the old placement remain on disk.
// The pipeline's lock count need not agree: the manager places every
// record itself.
func walShards(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// walOptions maps the -fsync flag onto wal.Options.
func walOptions(o options) (wal.Options, error) {
	policy, err := wal.ParseSyncPolicy(o.fsync)
	if err != nil {
		return wal.Options{}, err
	}
	return wal.Options{Policy: policy}, nil
}

// recoverWAL replays every intact record under dir into the system,
// stopping cleanly per shard at the first torn or corrupt record.
// cover is the checkpoint's embedded WAL position (per-shard next
// sequence number at checkpoint save): records below it are already in
// the checkpoint and are skipped, so a crash between a checkpoint save
// and the WAL reset it covers never double-applies observations.
// Replay application is additionally idempotent-tolerant: a record
// that no longer applies (re-adding a sensor the checkpoint already
// holds, removing one it never saw) is counted and skipped, not fatal
// — the remaining defense for checkpoints written before the cover
// field existed.
func recoverWAL(sys *smiler.System, dir string, cover map[int]uint64, logger *slog.Logger) (wal.ReplayStats, error) {
	applied, skipped, covered := 0, 0, 0
	known := make(map[string]bool)
	for _, id := range sys.Sensors() {
		known[id] = true
	}
	st, err := wal.ReplayDir(dir, func(shard int, seq uint64, r wal.Record) error {
		if seq < cover[shard] {
			covered++
			return nil
		}
		var aerr error
		switch r.Type {
		case wal.RecAddSensor:
			if known[r.Sensor] {
				skipped++
				return nil
			}
			if aerr = sys.AddSensor(r.Sensor, r.History); aerr == nil {
				known[r.Sensor] = true
			}
		case wal.RecObserve:
			if !known[r.Sensor] {
				skipped++
				return nil
			}
			aerr = sys.Observe(r.Sensor, r.Value)
		case wal.RecRemoveSensor:
			if !known[r.Sensor] {
				skipped++
				return nil
			}
			if aerr = sys.RemoveSensor(r.Sensor); aerr == nil {
				delete(known, r.Sensor)
			}
		default:
			skipped++
			return nil
		}
		if aerr != nil {
			skipped++
			logger.Warn("wal replay: record skipped",
				"shard", shard, "seq", seq, "type", r.Type.String(), "err", aerr)
			return nil
		}
		applied++
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("replaying WAL %s: %w", dir, err)
	}
	if st.Records > 0 || st.Torn {
		logger.Info("wal replayed",
			"records", st.Records, "applied", applied, "covered", covered,
			"skipped", skipped, "segments", st.Segments, "torn", st.Torn)
		sev := obs.SevInfo
		if st.Torn {
			sev = obs.SevWarn
		}
		sys.Events().Record(obs.Event{
			Type: "wal_replay", Severity: sev,
			Detail: fmt.Sprintf("records=%d applied=%d covered=%d skipped=%d torn=%v",
				st.Records, applied, covered, skipped, st.Torn),
		})
	}
	return st, nil
}

// staleCover reports a checkpoint cover that cannot belong to the open
// WAL: a shard index outside the log's range or a covered sequence
// number ahead of the shard's next append. That happens only when the
// WAL directory was cleared (or replaced) after the checkpoint was
// saved; the checkpoint must then be rewritten with a fresh cover or
// replay would wrongly skip new records landing on the reused low
// sequence numbers.
func staleCover(cover map[int]uint64, mgr *wal.Manager) bool {
	next := mgr.NextSeqs()
	for shard, seq := range cover {
		n, ok := next[shard]
		if !ok || seq > n {
			return true
		}
	}
	return false
}

// openDurability performs the full recovery sequence and returns the
// live WAL manager:
//
//  1. replay the existing WAL into the (checkpoint-restored) system,
//     skipping records the checkpoint's cover already contains;
//  2. open the sharded manager for appending (repairing torn tails and
//     positioning sequence numbers after the last intact record);
//  3. if a checkpoint path is configured and anything was replayed (or
//     the on-disk cover is stale), write a post-recovery checkpoint
//     embedding the manager's current positions as its cover, then
//     reset the logs — sequence numbers are preserved, so a crash at
//     any point in this window replays nothing twice.
//
// Without a checkpoint the replayed logs are kept: the WAL is then the
// only durable copy, and new appends extend it under the shard count
// pinned in the directory's meta file.
func openDurability(sys *smiler.System, cover map[int]uint64, o options, logger *slog.Logger) (*wal.Manager, error) {
	opts, err := walOptions(o)
	if err != nil {
		return nil, err
	}
	st, err := recoverWAL(sys, o.walDir, cover, logger)
	if err != nil {
		return nil, err
	}
	mgr, err := wal.OpenManager(o.walDir, walShards(o.shards), opts, ingest.ShardIndex)
	if err != nil {
		return nil, fmt.Errorf("opening WAL %s: %w", o.walDir, err)
	}
	if o.checkpoint != "" && (st.Records > 0 || st.Torn || staleCover(cover, mgr)) {
		if err := saveCheckpoint(sys, o.checkpoint, mgr.NextSeqs()); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("post-recovery checkpoint: %w", err)
		}
		sys.Events().Record(obs.Event{Type: "checkpoint", Detail: "post-recovery, " + o.checkpoint})
		if err := mgr.Reset(); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("truncating recovered WAL: %w", err)
		}
		sys.Events().Record(obs.Event{Type: "wal_reset", Detail: "recovered WAL truncated, " + o.walDir})
		logger.Info("post-recovery checkpoint saved", "path", o.checkpoint)
	}
	logger.Info("wal open",
		"dir", o.walDir, "shards", mgr.Shards(), "fsync", opts.Policy.String())
	return mgr, nil
}

// registerWALMetrics exposes the manager's counters on /metrics.
func registerWALMetrics(reg *obs.Registry, mgr *wal.Manager) {
	reg.CounterFunc("smiler_wal_appends_total",
		"Records appended to the write-ahead log.",
		func() float64 { return float64(mgr.Stats().Appends) })
	reg.CounterFunc("smiler_wal_syncs_total",
		"Explicit fsyncs of write-ahead-log segments.",
		func() float64 { return float64(mgr.Stats().Syncs) })
	reg.CounterFunc("smiler_wal_bytes_total",
		"Bytes appended to the write-ahead log.",
		func() float64 { return float64(mgr.Stats().Bytes) })
	reg.CounterFunc("smiler_wal_rotations_total",
		"Write-ahead-log segment rotations.",
		func() float64 { return float64(mgr.Stats().Rotations) })
}

// shutdownDurability runs the clean-exit tail after the pipeline has
// drained: sync the WAL, write the final checkpoint with the WAL
// positions embedded as its cover, and reset the logs it covers. The
// reset preserves sequence numbers, so a crash between the checkpoint
// save and the reset leaves records the next start recognizes as
// covered and skips — never a double apply.
func shutdownDurability(sys *smiler.System, mgr *wal.Manager, o options, logger *slog.Logger) error {
	if mgr != nil {
		if err := mgr.Sync(); err != nil {
			return fmt.Errorf("syncing WAL: %w", err)
		}
	}
	if o.checkpoint != "" {
		var cover map[int]uint64
		if mgr != nil {
			cover = mgr.NextSeqs()
		}
		if err := saveCheckpoint(sys, o.checkpoint, cover); err != nil {
			return fmt.Errorf("saving checkpoint: %w", err)
		}
		sys.Events().Record(obs.Event{Type: "checkpoint", Detail: "shutdown, " + o.checkpoint})
		logger.Info("checkpoint saved", "path", o.checkpoint)
		if mgr != nil {
			if err := mgr.Reset(); err != nil {
				return fmt.Errorf("resetting WAL: %w", err)
			}
			sys.Events().Record(obs.Event{Type: "wal_reset", Detail: "covered by shutdown checkpoint"})
		}
	}
	if mgr != nil {
		if err := mgr.Close(); err != nil {
			return fmt.Errorf("closing WAL: %w", err)
		}
	}
	return nil
}
