// Package serve is the engine's concurrent front door: a long-lived TCP
// server that executes SQL statements from many sessions against one shared
// core.Database. It makes the scarce resources global — an admission
// controller bounds in-flight statements, and the spill memory budget becomes
// a server-wide pool leased to queries in fixed shares — and it caches
// optimized plans keyed on each statement's tokens, invalidated by the
// catalog's DDL version.
//
// The wire protocol is deliberately tiny: length-prefixed binary frames, one
// statement per request, a fixed frame vocabulary for the response. Row
// payloads travel in the engine's own row codec (value.EncodeRows), so two
// clients receiving the same relation receive bit-identical payloads — the
// property the serial-vs-concurrent equivalence tests pin.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Frame types. Every frame on the wire is 4 bytes of big-endian payload
// length, one type byte, then the payload.
const (
	// FrameHello is sent by the server once per connection, before any
	// request; its payload is the server banner.
	FrameHello = byte('H')
	// FrameQuery carries one SQL statement (client → server).
	FrameQuery = byte('Q')
	// FrameSchema carries the result schema: one "name<TAB>TYPE" line per
	// column, newline-joined.
	FrameSchema = byte('S')
	// FrameRows carries a batch of result rows encoded with
	// value.EncodeRows.
	FrameRows = byte('R')
	// FrameStats carries per-query or server statistics as text.
	FrameStats = byte('T')
	// FrameError carries a statement error message.
	FrameError = byte('E')
	// FrameDone terminates every response.
	FrameDone = byte('D')
)

// maxFrameBytes bounds a single frame payload; anything larger indicates a
// corrupt stream (or an attempt to make the server allocate unboundedly).
const maxFrameBytes = 64 << 20

// frameChunk is the most of a payload ReadFrame allocates before any of it
// has arrived; past it the buffer doubles as bytes come in, so a length prefix
// alone cannot make a reader allocate up to maxFrameBytes.
const frameChunk = 64 << 10

// rowsPerFrame is the row-batch granularity of FrameRows. Batching amortizes
// framing overhead without letting one frame grow past maxFrameBytes for
// realistic rows.
const rowsPerFrame = 256

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("serve: frame payload %d bytes exceeds limit %d", len(payload), maxFrameBytes)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r. io.EOF is returned untranslated when the
// stream ends cleanly between frames; an EOF inside a frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("serve: frame payload %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	size := int(n)
	payload = make([]byte, min(size, frameChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		got += k
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		if got == size {
			return hdr[4], payload, nil
		}
		more := min(size-got, got)
		payload = slices.Grow(payload, more)[:got+more]
	}
}
