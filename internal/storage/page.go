package storage

import (
	"encoding/binary"
	"fmt"

	"relalg/internal/blockio"
	"relalg/internal/value"
)

// Pages are the unit of table-file IO and buffer-pool caching. A page image
// is a fixed 32-byte header followed by a payload that is exactly
// value.EncodeRows of the page's rows (the one row codec); images are addressed
// by slot (offset = file header + slot*pageBytes) and a page whose payload
// outgrows one slot simply claims the next slots too, so slot addressing
// stays fixed-size while oversized rows (a big MATRIX cell) remain storable.
//
// Layout (little endian):
//
//	page   := u32 magic, u16 version (FormatVersion), u16 flags, u32 part,
//	          u32 nrows, u32 payloadLen, u32 reserved, u64 checksum,
//	          payload
//
// The checksum is blockio.Checksum(nrows, payload) — the same FNV-1a the
// frame format uses. The remaining header fields are validated structurally:
// magic/version against constants, flags/reserved against zero, payloadLen
// against the image length, and part/nrows against the journal record that
// committed the page, so a bit flip anywhere in the image is detected and an
// accepted image is the only encoding of its rows.

const (
	pageMagic     = 0x4750414C // "LAPG" little endian
	pageHeaderLen = 32
)

// encodePage builds the image of one sealed page from its payload.
func encodePage(part, nrows uint32, payload []byte) []byte {
	data := make([]byte, 0, pageHeaderLen+len(payload))
	data = binary.LittleEndian.AppendUint32(data, pageMagic)
	data = binary.LittleEndian.AppendUint16(data, FormatVersion)
	data = binary.LittleEndian.AppendUint16(data, 0) // flags
	data = binary.LittleEndian.AppendUint32(data, part)
	data = binary.LittleEndian.AppendUint32(data, nrows)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = binary.LittleEndian.AppendUint32(data, 0) // reserved
	data = binary.LittleEndian.AppendUint64(data, blockio.Checksum(nrows, payload))
	return append(data, payload...)
}

// decodePage validates a page image against the journal record that committed
// it and decodes its rows.
func decodePage(data []byte, pi pageInfo) ([]value.Row, error) {
	if len(data) < pageHeaderLen {
		return nil, fmt.Errorf("storage: page at slot %d: short image (%d bytes)", pi.Slot, len(data))
	}
	if got := binary.LittleEndian.Uint32(data); got != pageMagic {
		return nil, fmt.Errorf("storage: page at slot %d: bad magic %#x", pi.Slot, got)
	}
	if got := binary.LittleEndian.Uint16(data[4:]); got != FormatVersion {
		return nil, fmt.Errorf("storage: page at slot %d: version %d (this build reads version %d)", pi.Slot, got, FormatVersion)
	}
	if flags, reserved := binary.LittleEndian.Uint16(data[6:]), binary.LittleEndian.Uint32(data[20:]); flags != 0 || reserved != 0 {
		return nil, fmt.Errorf("storage: page at slot %d: flags %#x, reserved %#x (want zero)", pi.Slot, flags, reserved)
	}
	part := binary.LittleEndian.Uint32(data[8:])
	nrows := binary.LittleEndian.Uint32(data[12:])
	payloadLen := binary.LittleEndian.Uint32(data[16:])
	sum := binary.LittleEndian.Uint64(data[24:])
	if part != pi.Part || nrows != pi.Rows {
		return nil, fmt.Errorf("storage: page at slot %d: header part=%d rows=%d disagrees with journal part=%d rows=%d",
			pi.Slot, part, nrows, pi.Part, pi.Rows)
	}
	if int(payloadLen) != len(data)-pageHeaderLen {
		return nil, fmt.Errorf("storage: page at slot %d: payload length %d in a %d-byte image", pi.Slot, payloadLen, len(data))
	}
	payload := data[pageHeaderLen:]
	if got := blockio.Checksum(nrows, payload); got != sum {
		return nil, fmt.Errorf("storage: page at slot %d: checksum mismatch (stored %016x, computed %016x)", pi.Slot, sum, got)
	}
	rows, err := value.DecodeRows(payload)
	if err != nil {
		return nil, fmt.Errorf("storage: page at slot %d: %w", pi.Slot, err)
	}
	if len(rows) != int(nrows) {
		return nil, fmt.Errorf("storage: page at slot %d: payload holds %d rows, header %d", pi.Slot, len(rows), nrows)
	}
	return rows, nil
}
