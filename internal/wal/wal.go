// Package wal is a per-shard append-only write-ahead log for the
// SMiLer serving system: the durability layer between "the HTTP
// handler accepted an observation" and "the shutdown checkpoint made
// it permanent". tspDB's framing — prediction functionality belongs
// behind database-grade durability — is the design target.
//
// Layout and format. A Log is a directory of segment files named by
// the sequence number of their first record (%020d.wal). Records are
// framed as
//
//	uint32 LE payload length | payload | uint32 LE CRC32C(payload)
//
// so a torn tail (crash mid-write) is detected by a short read or a
// checksum mismatch and recovery stops cleanly at the last intact
// record. Segments rotate at Options.SegmentBytes; a checkpoint that
// covers the whole log lets Reset delete every segment.
//
// Fsync policy. SyncAlways fsyncs after every append (no synced
// record is ever lost, slowest), SyncInterval fsyncs at most every
// syncInterval, 50 ms (bounded loss window), SyncOff leaves syncing to
// the OS (fastest; a machine crash can lose everything since the last
// rotation). Every policy flushes the user-space buffer per append,
// so a process crash (panic) without an OS crash loses nothing.
//
// The fault-injection points fault.PointWALAppend, fault.PointWALSync
// and fault.PointWALRead drive the robustness test harness through
// this package's failure paths.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/fault"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when syncInterval has elapsed since the
	// last sync (checked on append; Close and rotation always sync).
	SyncInterval
	// SyncOff never fsyncs explicitly (rotation and Close still do, so
	// sealed segments are durable).
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spellings onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always", "per-write":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// Options configures a Log; zero values take defaults.
type Options struct {
	// SegmentBytes is the rotation threshold (default 16 MiB).
	SegmentBytes int64
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
}

// syncInterval is the SyncInterval fsync period.
const syncInterval = 50 * time.Millisecond

func (o *Options) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
}

// ErrClosed is returned by Append/Sync on a closed log.
var ErrClosed = errors.New("wal: log closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	segSuffix   = ".wal"
	frameHeader = 4 // uint32 payload length
	frameCRC    = 4 // uint32 CRC32C
)

func segName(startSeq uint64) string {
	return fmt.Sprintf("%020d%s", startSeq, segSuffix)
}

// Log is one append-only log directory. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	size     int64 // bytes in the active segment
	seq      uint64
	segStart uint64
	lastSync time.Time
	closed   bool

	appends   atomic.Uint64
	syncs     atomic.Uint64
	bytes     atomic.Uint64
	rotations atomic.Uint64

	buf []byte // scratch for frame encoding
}

// Open opens (or creates) the log directory, repairs a torn tail left
// by a crash — the last segment is truncated to its final intact
// record — and positions the log to append after the last record.
func Open(dir string, opts Options) (*Log, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Scan the last segment: count intact records and chop anything
	// after the last one, so appends never land behind garbage.
	last := segs[len(segs)-1]
	records, validEnd, _, err := scanSegment(filepath.Join(dir, segName(last)), nil)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, segName(last))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if fi.Size() != validEnd {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		// Make the repair itself durable: without this fsync a crash
		// shortly after recovery could resurrect the torn bytes behind
		// newly appended frames under SyncInterval/SyncOff.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing repaired tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = validEnd
	l.segStart = last
	l.seq = last + records
	l.lastSync = time.Now()
	return l, nil
}

// listSegments returns the starting sequence numbers of the
// directory's segments, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, start)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// openSegment starts a fresh segment whose first record will have the
// given sequence number.
func (l *Log) openSegment(startSeq uint64) error {
	path := filepath.Join(l.dir, segName(startSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = 0
	l.segStart = startSeq
	l.seq = startSeq
	l.lastSync = time.Now()
	return nil
}

// Append encodes and writes one record, returning its sequence number.
// The record is on stable storage when Append returns only under
// SyncAlways; the other policies trade a bounded loss window for
// throughput.
func (l *Log) Append(r Record) (uint64, error) {
	if err := fault.Check(fault.PointWALAppend); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	payload, err := appendPayload(l.buf[:0], r)
	if err != nil {
		return 0, err
	}
	l.buf = payload[:0]
	frameLen := int64(frameHeader + len(payload) + frameCRC)
	if l.size > 0 && l.size+frameLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	var crc [frameCRC]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(crc[:]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	// Every policy pushes the frame to the OS immediately: a process
	// crash then loses nothing, only a machine crash is at the mercy of
	// the fsync policy.
	if err := l.w.Flush(); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	seq := l.seq
	l.seq++
	l.size += frameLen
	l.appends.Add(1)
	l.bytes.Add(uint64(frameLen))
	switch l.opts.Policy {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= syncInterval {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// rotateLocked seals the active segment (flush + fsync) and opens the
// next one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.rotations.Add(1)
	return l.openSegment(l.seq)
}

// Sync flushes and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := fault.Check(fault.PointWALSync); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs.Add(1)
	l.lastSync = time.Now()
	return nil
}

// NextSeq returns the sequence number the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Reset atomically discards every record: all segments are deleted and
// a fresh one starts at the current sequence number. Called after a
// checkpoint that covers the whole log.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, start := range segs {
		if err := os.Remove(filepath.Join(l.dir, segName(start))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return l.openSegment(l.seq)
}

// Close seals the log: flush, fsync, close. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.f.Close()
}

// LogStats snapshots one log's counters.
type LogStats struct {
	Appends   uint64 `json:"appends"`
	Syncs     uint64 `json:"syncs"`
	Bytes     uint64 `json:"bytes"`
	Rotations uint64 `json:"rotations"`
	NextSeq   uint64 `json:"next_seq"`
}

// Stats snapshots the log's counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Appends:   l.appends.Load(),
		Syncs:     l.syncs.Load(),
		Bytes:     l.bytes.Load(),
		Rotations: l.rotations.Load(),
		NextSeq:   l.NextSeq(),
	}
}

// ReplayStats reports what a replay (or segment scan) saw.
type ReplayStats struct {
	// Records is the number of intact records visited.
	Records uint64
	// Segments is the number of segment files visited.
	Segments int
	// Torn reports that replay stopped at a torn or corrupt record
	// (everything before it was applied; everything after ignored).
	Torn bool
	// TornSegment is the path of the segment holding the bad record.
	TornSegment string
}

// Replay visits every intact record of the log directory in append
// order and stops cleanly at the first torn or corrupt record: the
// frame is discarded along with everything after it, exactly the
// records a crashed writer may have half-written. A non-nil error
// from fn aborts the replay and is returned wrapped.
func Replay(dir string, fn func(seq uint64, r Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	for _, start := range segs {
		path := filepath.Join(dir, segName(start))
		st.Segments++
		records, _, torn, err := scanSegment(path, func(i uint64, r Record) error {
			return fn(start+i, r)
		})
		st.Records += records
		if err != nil {
			return st, err
		}
		if torn {
			st.Torn = true
			st.TornSegment = path
			return st, nil // later segments are past the tear; ignore them
		}
	}
	return st, nil
}

// scanSegment reads one segment, calling fn (when non-nil) per intact
// record with the record's index within the segment. It returns the
// record count, the byte offset just past the last intact record, and
// whether the segment ends in a torn or corrupt frame. I/O errors (as
// opposed to torn data) and fn errors are returned as err.
func scanSegment(path string, fn func(i uint64, r Record) error) (records uint64, validEnd int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 1<<20)
	var off int64
	var hdr [frameHeader]byte
	var crcBuf [frameCRC]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return records, off, false, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, true, nil // torn header
			}
			return records, off, false, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxPayload {
			return records, off, true, nil // corrupt length
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(rd, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, true, nil // torn payload
			}
			return records, off, false, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if _, err := io.ReadFull(rd, crcBuf[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, true, nil // torn checksum
			}
			return records, off, false, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		// The injection point models silent media corruption: flip a
		// byte after the read so the CRC check below must catch it.
		fault.Corrupt(fault.PointWALRead, payload)
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return records, off, true, nil // corrupt frame
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return records, off, true, nil // structurally corrupt
		}
		if fn != nil {
			if err := fn(records, rec); err != nil {
				return records, off, false, fmt.Errorf("wal: replaying %s: %w", path, err)
			}
		}
		records++
		off += frameHeader + int64(n) + frameCRC
	}
}
