package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Manager shards one logical WAL across N per-shard Logs: every record
// of a sensor (registration, observations, removal) lands in one
// shard's log, so per-sensor order is that log's append order.
// Cross-sensor order is not preserved and does not matter (sensors are
// independent). The placement is the manager's own: it need not match
// how the ingestion pipeline spreads sensors over its locks.
type Manager struct {
	dir      string
	logs     []*Log
	shardFor func(id string, shards int) int
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// metaName is the per-WAL-directory metadata file pinning the shard
// count the logs were written under. Sensor→shard placement depends on
// the shard count, so reopening existing logs under a different count
// would route a sensor's new appends to a different log than its old
// records and scramble per-sensor replay order. The pinned count wins
// over the configured one until the directory is cleared.
const metaName = "wal.meta"

// readMeta returns the pinned shard count, or 0 when no meta file
// exists (fresh directory or one written before meta was introduced).
func readMeta(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("wal: corrupt meta file %s: %q", filepath.Join(dir, metaName), b)
	}
	return n, nil
}

func writeMeta(dir string, shards int) error {
	return WriteFileAtomic(filepath.Join(dir, metaName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", shards)
		return err
	})
}

// listShardDirs returns the shard indices of the existing shard-NNN
// subdirectories, ascending.
func listShardDirs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var shards []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if err != nil {
			continue
		}
		shards = append(shards, n)
	}
	sort.Ints(shards)
	return shards, nil
}

// OpenManager opens (creating as needed) a sharded WAL under dir with
// one log per shard. shardFor maps a sensor id onto its shard; Append
// routes every record through it, so a sensor's registration shares a
// log with its observations.
//
// The first open of a directory pins the shard count in a meta file;
// later opens reuse the pinned count whatever shards asks for. A
// directory holding shard subdirectories but no meta file (written
// before meta existed) pins the count inferred from the highest shard
// index.
func OpenManager(dir string, shards int, opts Options, shardFor func(id string, shards int) int) (*Manager, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("wal: shard count %d must be positive", shards)
	}
	if shardFor == nil {
		return nil, fmt.Errorf("wal: nil shard function")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	pinned, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if pinned == 0 {
		if existing, err := listShardDirs(dir); err != nil {
			return nil, err
		} else if len(existing) > 0 {
			pinned = existing[len(existing)-1] + 1
		}
	}
	if pinned > 0 {
		shards = pinned
	}
	if err := writeMeta(dir, shards); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, logs: make([]*Log, shards), shardFor: shardFor}
	for i := range m.logs {
		l, err := Open(shardDir(dir, i), opts)
		if err != nil {
			for _, open := range m.logs[:i] {
				open.Close()
			}
			return nil, err
		}
		m.logs[i] = l
	}
	return m, nil
}

// Shards returns the number of shard logs.
func (m *Manager) Shards() int { return len(m.logs) }

// Append logs one record into the log of its sensor's shard (the
// manager's own placement, like Log.Append for one log).
func (m *Manager) Append(r Record) error {
	_, err := m.logs[m.shardFor(r.Sensor, len(m.logs))].Append(r)
	return err
}

// NextSeqs reports, per shard, the sequence number the shard's next
// append will receive. Captured immediately after a Sync, it is the
// "cover" a checkpoint embeds: every record with a lower sequence
// number is folded into the checkpoint and must be skipped on replay.
func (m *Manager) NextSeqs() map[int]uint64 {
	out := make(map[int]uint64, len(m.logs))
	for i, l := range m.logs {
		out[i] = l.NextSeq()
	}
	return out
}

// Sync fsyncs every shard log.
func (m *Manager) Sync() error {
	for _, l := range m.logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards every record in every shard log (all are covered by
// a just-written checkpoint).
func (m *Manager) Reset() error {
	for _, l := range m.logs {
		if err := l.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// Close seals every shard log.
func (m *Manager) Close() error {
	var first error
	for _, l := range m.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats sums the per-shard log counters.
func (m *Manager) Stats() LogStats {
	var st LogStats
	for _, l := range m.logs {
		s := l.Stats()
		st.Appends += s.Appends
		st.Syncs += s.Syncs
		st.Bytes += s.Bytes
		st.Rotations += s.Rotations
	}
	return st
}

// ReplayDir visits every intact record under a sharded WAL directory,
// shard by shard (ascending shard index), in append order within each
// shard. It reads whatever shard directories exist on disk — not a
// configured count — so recovery survives a restart with a different
// shard setting. Per shard, replay stops cleanly at the first torn or
// corrupt record; stats are aggregated across shards.
func ReplayDir(dir string, fn func(shard int, seq uint64, r Record) error) (ReplayStats, error) {
	var st ReplayStats
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	var shards []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if err != nil {
			continue
		}
		shards = append(shards, n)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		sub, err := Replay(shardDir(dir, shard), func(seq uint64, r Record) error {
			return fn(shard, seq, r)
		})
		st.Records += sub.Records
		st.Segments += sub.Segments
		if sub.Torn {
			st.Torn = true
			st.TornSegment = sub.TornSegment
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
