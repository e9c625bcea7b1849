package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary row codec. Rows are encoded whenever they cross a simulated
// network boundary (cluster shuffles), so that the benchmarks charge a
// realistic serialization cost — the term that dominates the paper's
// Figure 4 aggregation breakdown.
//
// Layout (little endian):
//
//	row    := u32 count, value*
//	value  := u8 kind, payload
//	bool   := u8
//	int    := i64
//	double := f64
//	string := u32 len, bytes
//	vector := i64 label, u32 len, f64*
//	matrix := u32 rows, u32 cols, f64*
//	lscal  := f64, i64 label

// AppendRow appends the encoding of r to dst and returns the extended slice.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendValue appends the encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindBool:
		if v.B {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case KindDouble:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.D))
	case KindString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
		dst = append(dst, v.S...)
	case KindVector:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Label))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Vec.Len()))
		for _, x := range v.Vec.Data {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case KindMatrix:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Mat.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Mat.Cols))
		for _, x := range v.Mat.Data {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case KindLabeledScalar:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.D))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Label))
	}
	return dst
}

// EncodedLen is len(AppendRow(nil, r)) computed from the layout above,
// without encoding: shuffle accounting only needs the size of a moved row.
func (r Row) EncodedLen() int {
	n := 4
	for _, v := range r {
		n++ // kind byte
		switch v.Kind {
		case KindBool:
			n++
		case KindInt, KindDouble:
			n += 8
		case KindString:
			n += 4 + len(v.S)
		case KindVector:
			n += 8 + 4 + 8*v.Vec.Len()
		case KindMatrix:
			n += 4 + 4 + 8*len(v.Mat.Data)
		case KindLabeledScalar:
			n += 16
		}
	}
	return n
}

// DecodeRow decodes one row from buf, returning the row and the remaining
// bytes.
func DecodeRow(buf []byte) (Row, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("value: short row header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Every value takes at least its kind byte, so a count the input cannot
	// hold is refused before it sizes an allocation.
	if n > len(buf) {
		return nil, nil, fmt.Errorf("value: row of %d values in %d bytes", n, len(buf))
	}
	row := make(Row, n)
	var err error
	for i := range row {
		row[i], buf, err = DecodeValue(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}

// DecodeValue decodes one value from buf, returning the value and the
// remaining bytes.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) < 1 {
		return Value{}, nil, fmt.Errorf("value: short value header")
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindNull:
		return Null(), buf, nil
	case KindBool:
		if len(buf) < 1 {
			return Value{}, nil, fmt.Errorf("value: short bool")
		}
		// Only the two bytes AppendValue writes decode, so every accepted
		// input re-encodes to itself.
		if buf[0] > 1 {
			return Value{}, nil, fmt.Errorf("value: bool byte %d", buf[0])
		}
		return Bool(buf[0] == 1), buf[1:], nil
	case KindInt:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("value: short int")
		}
		return Int(int64(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case KindDouble:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("value: short double")
		}
		return Double(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case KindString:
		if len(buf) < 4 {
			return Value{}, nil, fmt.Errorf("value: short string header")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < n {
			return Value{}, nil, fmt.Errorf("value: short string body")
		}
		return String_(string(buf[:n])), buf[n:], nil
	case KindVector:
		if len(buf) < 12 {
			return Value{}, nil, fmt.Errorf("value: short vector header")
		}
		label := int64(binary.LittleEndian.Uint64(buf))
		n := int(binary.LittleEndian.Uint32(buf[8:]))
		buf = buf[12:]
		if n > len(buf)/8 {
			return Value{}, nil, fmt.Errorf("value: short vector body")
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		buf = buf[8*n:]
		v := LabeledVector(vecOf(data), label)
		return v, buf, nil
	case KindMatrix:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("value: short matrix header")
		}
		rows := binary.LittleEndian.Uint32(buf)
		cols := binary.LittleEndian.Uint32(buf[4:])
		buf = buf[8:]
		// Two uint32 factors cannot overflow a uint64 product.
		if uint64(rows)*uint64(cols) > uint64(len(buf)/8) {
			return Value{}, nil, fmt.Errorf("value: short matrix body")
		}
		data := make([]float64, int(rows)*int(cols))
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		buf = buf[8*len(data):]
		return Matrix(matOf(int(rows), int(cols), data)), buf, nil
	case KindLabeledScalar:
		if len(buf) < 16 {
			return Value{}, nil, fmt.Errorf("value: short labeled scalar")
		}
		d := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		label := int64(binary.LittleEndian.Uint64(buf[8:]))
		return LabeledScalar(d, label), buf[16:], nil
	}
	return Value{}, nil, fmt.Errorf("value: unknown kind byte %d", kind)
}

// EncodeRows encodes a batch of rows into one buffer.
func EncodeRows(rows []Row) []byte {
	var size int
	for _, r := range rows {
		size += r.SizeBytes() + 8
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	return buf
}

// DecodeRows decodes a batch encoded by EncodeRows.
func DecodeRows(buf []byte) ([]Row, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("value: short batch header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Every row takes at least its 4-byte count, so a count the input cannot
	// hold is refused before it sizes an allocation.
	if n > len(buf)/4 {
		return nil, fmt.Errorf("value: batch of %d rows in %d bytes", n, len(buf))
	}
	rows := make([]Row, n)
	var err error
	for i := range rows {
		rows[i], buf, err = DecodeRow(buf)
		if err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("value: %d trailing bytes after batch", len(buf))
	}
	return rows, nil
}
