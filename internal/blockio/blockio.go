// Package blockio is the shared on-disk framing layer: a versioned file
// header and checksummed length-prefixed frames. Both the spill layer's
// temp-file runs and the storage engine's journal use it, so the framing,
// corruption detection, and torn-tail semantics live in exactly one place
// instead of being re-derived per file format.
//
// Layout (little endian):
//
//	file   := header, frame*
//	header := magic[8], u32 version, u32 extra
//	frame  := u32 payloadLen, u32 aux, u64 checksum, payload
//
// The checksum is FNV-1a over the frame's aux field and payload, so a frame
// whose length prefix survived a crash but whose body did not is still
// detected. ReadFrame distinguishes three outcomes: a full frame, a clean
// end of file (io.EOF), and a torn tail (ErrTorn) — a partially-written or
// corrupt final frame that recovery may discard, because the write protocol
// appends frames only after the data they describe is durable.
package blockio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MagicLen is the fixed length of a file-header magic string.
const MagicLen = 8

// HeaderLen is the encoded size of a file header.
const HeaderLen = MagicLen + 8

// frameHeaderLen is the encoded size of a frame header.
const frameHeaderLen = 16

// ErrTorn marks a truncated or checksum-corrupt frame at the tail of a file:
// the bytes of an append that did not complete. Callers that own the file
// (journal recovery) truncate back to the last good frame; callers that do
// not (spill readers) surface it as corruption.
var ErrTorn = errors.New("blockio: torn frame")

// Header identifies a file's format and version, plus one format-owned
// extra word (the storage engine stores its page size there).
type Header struct {
	Magic   string // exactly MagicLen bytes
	Version uint32
	Extra   uint32
}

// AppendHeader appends the encoded header to dst.
func AppendHeader(dst []byte, h Header) ([]byte, error) {
	if len(h.Magic) != MagicLen {
		return nil, fmt.Errorf("blockio: magic %q must be %d bytes", h.Magic, MagicLen)
	}
	dst = append(dst, h.Magic...)
	dst = binary.LittleEndian.AppendUint32(dst, h.Version)
	dst = binary.LittleEndian.AppendUint32(dst, h.Extra)
	return dst, nil
}

// ReadHeader reads a file header and verifies its magic and version,
// returning the header (for Extra). A short read or mismatch is a hard
// error naming what was expected — the fail-fast contract for opening a
// data directory written by a different format or version.
func ReadHeader(r io.Reader, magic string, version uint32) (Header, error) {
	var buf [HeaderLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Header{}, fmt.Errorf("blockio: short file header (want %q v%d): %w", magic, version, err)
	}
	h := Header{
		Magic:   string(buf[:MagicLen]),
		Version: binary.LittleEndian.Uint32(buf[MagicLen:]),
		Extra:   binary.LittleEndian.Uint32(buf[MagicLen+4:]),
	}
	if h.Magic != magic {
		return Header{}, fmt.Errorf("blockio: bad magic %q (want %q): not a recognized file", h.Magic, magic)
	}
	if h.Version != version {
		return Header{}, fmt.Errorf("blockio: format version %d (this build reads version %d)", h.Version, version)
	}
	return h, nil
}

// Checksum is the frame checksum: FNV-1a over aux (little endian) then the
// payload bytes. Exported so page formats that embed a checksum in their own
// fixed-size header (rather than a frame) stay consistent with frames.
func Checksum(aux uint32, payload []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var a [4]byte
	binary.LittleEndian.PutUint32(a[:], aux)
	for _, b := range a {
		h ^= uint64(b)
		h *= prime64
	}
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// AppendFrame appends one encoded frame to dst.
func AppendFrame(dst []byte, aux uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, aux)
	dst = binary.LittleEndian.AppendUint64(dst, Checksum(aux, payload))
	return append(dst, payload...)
}

// WriteFrame writes one frame to w, returning the encoded byte count.
func WriteFrame(w io.Writer, aux uint32, payload []byte) (int64, error) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], aux)
	binary.LittleEndian.PutUint64(hdr[8:], Checksum(aux, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("blockio: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("blockio: write frame payload: %w", err)
	}
	return int64(frameHeaderLen + len(payload)), nil
}

// FrameSize returns the encoded size of a frame with the given payload
// length.
func FrameSize(payloadLen int) int64 { return int64(frameHeaderLen + payloadLen) }

// ReadFrame reads the next frame from r. It returns io.EOF at a clean end of
// file and an error wrapping ErrTorn when the tail holds a partial or
// checksum-corrupt frame; maxPayload bounds the length prefix so a corrupt
// prefix cannot trigger a huge allocation.
func ReadFrame(r io.Reader, maxPayload int) (payload []byte, aux uint32, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: short frame header: %v", ErrTorn, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	aux = binary.LittleEndian.Uint32(hdr[4:8])
	sum := binary.LittleEndian.Uint64(hdr[8:])
	if n > maxPayload {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrTorn, n, maxPayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: short frame payload: %v", ErrTorn, err)
	}
	if got := Checksum(aux, payload); got != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrTorn, sum, got)
	}
	return payload, aux, nil
}
