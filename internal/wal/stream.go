package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Streaming frames. The cluster replication layer ships
// WAL records between nodes over HTTP using the exact on-disk envelope
// — uint32 LE length | payload | uint32 LE CRC32C(payload) — so a
// truncated or bit-flipped stream is detected the same way a torn
// segment tail is. The stream payload differs from the disk payload in
// one way: it is prefixed with the record's stream sequence number
// (uvarint), which followers use to drop duplicates and detect gaps.

// ErrCorruptFrame is returned by FrameReader.Next when a frame fails
// its CRC or structural checks — the stream was truncated mid-frame or
// damaged in transit.
var ErrCorruptFrame = errors.New("wal: corrupt stream frame")

// EncodeFrame appends one framed record, tagged with its stream
// sequence number, to buf and returns the extended slice.
func EncodeFrame(buf []byte, seq uint64, r Record) ([]byte, error) {
	start := len(buf)
	// Reserve the length header; the payload size is known only after
	// encoding.
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, seq)
	payload, err := appendPayload(buf, r)
	if err != nil {
		return buf[:start], err
	}
	buf = payload
	n := len(buf) - start - frameHeader
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	var crc [frameCRC]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf[start+frameHeader:], castagnoli))
	return append(buf, crc[:]...), nil
}

// FrameReader decodes a stream of frames written by EncodeFrame.
type FrameReader struct {
	rd      *bufio.Reader
	payload []byte
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{rd: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record and its stream sequence number. It
// returns io.EOF at a clean end of stream and ErrCorruptFrame when the
// stream ends mid-frame or a frame fails its checksum — everything
// decoded before the bad frame is still valid, mirroring torn-tail
// recovery on disk.
func (fr *FrameReader) Next() (seq uint64, rec Record, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(fr.rd, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, rec, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, rec, ErrCorruptFrame
		}
		return 0, rec, fmt.Errorf("wal: reading stream frame: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxPayload {
		return 0, rec, ErrCorruptFrame
	}
	if cap(fr.payload) < int(n) {
		fr.payload = make([]byte, n)
	}
	fr.payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.rd, fr.payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, rec, ErrCorruptFrame
		}
		return 0, rec, fmt.Errorf("wal: reading stream frame: %w", err)
	}
	var crcBuf [frameCRC]byte
	if _, err := io.ReadFull(fr.rd, crcBuf[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, rec, ErrCorruptFrame
		}
		return 0, rec, fmt.Errorf("wal: reading stream frame: %w", err)
	}
	if crc32.Checksum(fr.payload, castagnoli) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return 0, rec, ErrCorruptFrame
	}
	seq, sn := binary.Uvarint(fr.payload)
	if sn <= 0 {
		return 0, rec, ErrCorruptFrame
	}
	rec, derr := decodePayload(fr.payload[sn:])
	if derr != nil {
		return 0, rec, ErrCorruptFrame
	}
	return seq, rec, nil
}
