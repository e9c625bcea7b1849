package storage

import (
	"encoding/binary"
	"fmt"

	"relalg/internal/linalg"
	"relalg/internal/value"
)

// The stored-row codec. It is the value row codec with one change: VECTOR
// and MATRIX float payloads go through the run compressor instead of being
// written as raw 8-byte words. Scalar kinds reuse value.AppendValue /
// value.DecodeValue verbatim, so the two codecs cannot drift on anything but
// the two compressed kinds.
//
// Layout (little endian):
//
//	payload := row*              (row count lives in the page header)
//	row     := u32 count, value*
//	vector  := u8 kind, i64 label, u32 len, floats
//	matrix  := u8 kind, u32 rows, u32 cols, floats
//	other   := exactly the value codec's encoding
//
// where floats is the self-delimiting compressed stream of compress.go.

// appendStoredRow appends the stored encoding of r to dst.
func appendStoredRow(dst []byte, r value.Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		switch v.Kind {
		case value.KindVector:
			dst = append(dst, byte(value.KindVector))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Label))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Vec.Len()))
			dst = appendFloats(dst, v.Vec.Data)
		case value.KindMatrix:
			dst = append(dst, byte(value.KindMatrix))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Mat.Rows))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Mat.Cols))
			dst = appendFloats(dst, v.Mat.Data)
		default:
			dst = value.AppendValue(dst, v)
		}
	}
	return dst
}

// decodeStoredValue decodes one stored value from buf.
func decodeStoredValue(buf []byte) (value.Value, []byte, error) {
	if len(buf) < 1 {
		return value.Value{}, nil, fmt.Errorf("storage: short value header")
	}
	switch value.Kind(buf[0]) {
	case value.KindVector:
		buf = buf[1:]
		if len(buf) < 12 {
			return value.Value{}, nil, fmt.Errorf("storage: short vector header")
		}
		label := int64(binary.LittleEndian.Uint64(buf))
		n := int(binary.LittleEndian.Uint32(buf[8:]))
		buf = buf[12:]
		data := make([]float64, n)
		rest, err := decodeFloats(data, buf)
		if err != nil {
			return value.Value{}, nil, err
		}
		return value.LabeledVector(&linalg.Vector{Data: data}, label), rest, nil
	case value.KindMatrix:
		buf = buf[1:]
		if len(buf) < 8 {
			return value.Value{}, nil, fmt.Errorf("storage: short matrix header")
		}
		rows := int(binary.LittleEndian.Uint32(buf))
		cols := int(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[8:]
		data := make([]float64, rows*cols)
		rest, err := decodeFloats(data, buf)
		if err != nil {
			return value.Value{}, nil, err
		}
		return value.Matrix(&linalg.Matrix{Rows: rows, Cols: cols, Data: data}), rest, nil
	default:
		return value.DecodeValue(buf)
	}
}

// decodeStoredRows decodes a page payload of nrows rows.
func decodeStoredRows(payload []byte, nrows int) ([]value.Row, error) {
	rows := make([]value.Row, nrows)
	for i := range rows {
		if len(payload) < 4 {
			return nil, fmt.Errorf("storage: short row header in page payload")
		}
		n := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		r := make(value.Row, n)
		var err error
		for j := range r {
			r[j], payload, err = decodeStoredValue(payload)
			if err != nil {
				return nil, err
			}
		}
		rows[i] = r
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes in page payload", len(payload))
	}
	return rows, nil
}
