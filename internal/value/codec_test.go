package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relalg/internal/linalg"
)

func roundTripRow(t *testing.T, r Row) {
	t.Helper()
	buf := AppendRow(nil, r)
	if r.EncodedLen() != len(buf) {
		t.Fatalf("EncodedLen %d, encoded %d bytes", r.EncodedLen(), len(buf))
	}
	got, rest, err := DecodeRow(buf)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(got) != len(r) {
		t.Fatalf("row length %d, want %d", len(got), len(r))
	}
	for i := range r {
		if !got[i].Equal(r[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], r[i])
		}
	}
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	roundTripRow(t, Row{
		Null(),
		Bool(true),
		Bool(false),
		Int(-42),
		Double(3.14159),
		String_(""),
		String_("hello, codec"),
		Vector(linalg.VectorOf(1, -2, 3.5)),
		LabeledVector(linalg.VectorOf(9), 77),
		Matrix(linalg.Identity(3)),
		LabeledScalar(-1.5, 123),
	})
}

func TestCodecEmptyRow(t *testing.T) {
	roundTripRow(t, Row{})
}

func TestCodecBatch(t *testing.T) {
	rows := []Row{
		{Int(1), Double(2)},
		{String_("a"), Null()},
		{Vector(linalg.VectorOf(5, 6))},
	}
	buf := EncodeRows(rows)
	got, err := DecodeRows(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("batch length %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if !got[i][j].Equal(rows[i][j]) {
				t.Fatalf("row %d col %d mismatch", i, j)
			}
		}
	}
}

func TestCodecCorruptInputs(t *testing.T) {
	bad := [][]byte{
		{},                                // empty
		{1, 0, 0},                         // short row header
		{1, 0, 0, 0},                      // count 1 but no value
		{1, 0, 0, 0, 200},                 // unknown kind
		{1, 0, 0, 0, byte(KindInt), 1, 2}, // short int
	}
	for i, buf := range bad {
		if _, _, err := DecodeRow(buf); err == nil {
			t.Errorf("case %d: corrupt input decoded successfully", i)
		}
	}
	if _, err := DecodeRows([]byte{9}); err == nil {
		t.Error("short batch decoded successfully")
	}
	// Trailing garbage after a valid batch is an error.
	buf := EncodeRows([]Row{{Int(1)}})
	buf = append(buf, 0xFF)
	if _, err := DecodeRows(buf); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Double(r.NormFloat64() * 1000)
	case 4:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String_(string(b))
	case 5:
		v := linalg.NewVector(r.Intn(8))
		for i := range v.Data {
			v.Data[i] = r.NormFloat64()
		}
		return LabeledVector(v, int64(r.Intn(100))-1)
	case 6:
		m := linalg.NewMatrix(r.Intn(5)+1, r.Intn(5)+1)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return Matrix(m)
	default:
		return LabeledScalar(r.NormFloat64(), int64(r.Intn(1000)))
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		row := make(Row, int(nRaw%10))
		for i := range row {
			row[i] = randomValue(r)
		}
		buf := AppendRow(nil, row)
		got, rest, err := DecodeRow(buf)
		if err != nil || len(rest) != 0 || len(got) != len(row) || row.EncodedLen() != len(buf) {
			return false
		}
		for i := range row {
			if !got[i].Equal(row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// bitsEqual compares values exactly, treating NaN as equal to NaN by bit
// pattern (Value.Equal follows IEEE NaN != NaN, which would make codec
// round-trip checks vacuous for NaN payloads).
func bitsEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	f64eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch a.Kind {
	case KindDouble:
		return f64eq(a.D, b.D)
	case KindLabeledScalar:
		return a.Label == b.Label && f64eq(a.D, b.D)
	case KindVector:
		if a.Label != b.Label || a.Vec.Len() != b.Vec.Len() {
			return false
		}
		for i := range a.Vec.Data {
			if !f64eq(a.Vec.Data[i], b.Vec.Data[i]) {
				return false
			}
		}
		return true
	case KindMatrix:
		if a.Mat.Rows != b.Mat.Rows || a.Mat.Cols != b.Mat.Cols {
			return false
		}
		for i := range a.Mat.Data {
			if !f64eq(a.Mat.Data[i], b.Mat.Data[i]) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// roundTripBits encodes and decodes a row, comparing bit-exactly.
func roundTripBits(t *testing.T, r Row) {
	t.Helper()
	buf := AppendRow(nil, r)
	if r.EncodedLen() != len(buf) {
		t.Fatalf("EncodedLen %d, encoded %d bytes", r.EncodedLen(), len(buf))
	}
	got, rest, err := DecodeRow(buf)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if len(rest) != 0 || len(got) != len(r) {
		t.Fatalf("rest=%d len=%d want len=%d", len(rest), len(got), len(r))
	}
	for i := range r {
		if !bitsEqual(got[i], r[i]) {
			t.Fatalf("value %d: got %v, want %v", i, got[i], r[i])
		}
	}
}

// TestCodecSpecialFloats: NaN, infinities, signed zero, and denormals
// round-trip bit-identically in every float-carrying kind. Spill files reuse
// this codec, so out-of-core execution depends on it.
func TestCodecSpecialFloats(t *testing.T) {
	nan := math.NaN()
	specials := []float64{nan, math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, f := range specials {
		roundTripBits(t, Row{
			Double(f),
			LabeledScalar(f, 42),
			Vector(linalg.VectorOf(f, 1, f)),
			LabeledVector(linalg.VectorOf(f), -1),
		})
	}
	m := linalg.NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = specials[i%len(specials)]
	}
	roundTripBits(t, Row{Matrix(m)})
}

// TestCodecDegenerateShapes: empty vectors and 1×n / n×1 / 1×1 matrices.
func TestCodecDegenerateShapes(t *testing.T) {
	roundTripBits(t, Row{
		Vector(linalg.NewVector(0)),
		LabeledVector(linalg.NewVector(0), 7),
		Matrix(linalg.NewMatrix(1, 1)),
		Matrix(linalg.NewMatrix(1, 5)),
		Matrix(linalg.NewMatrix(5, 1)),
	})
}

// TestPropCodecRoundTripBits is the bit-exact variant of the round-trip
// property, with special floats injected into the random rows (the
// Equal-based property cannot cover NaN).
func TestPropCodecRoundTripBits(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		row := make(Row, int(nRaw%8)+1)
		for i := range row {
			row[i] = randomValue(r)
			// Poison some float payloads with specials.
			s := specials[r.Intn(len(specials))]
			switch v := &row[i]; v.Kind {
			case KindDouble, KindLabeledScalar:
				v.D = s
			case KindVector:
				if v.Vec.Len() > 0 && r.Intn(2) == 0 {
					vec := linalg.NewVector(v.Vec.Len())
					copy(vec.Data, v.Vec.Data)
					vec.Data[r.Intn(vec.Len())] = s
					v.Vec = vec
				}
			case KindMatrix:
				if len(v.Mat.Data) > 0 && r.Intn(2) == 0 {
					m := linalg.NewMatrix(v.Mat.Rows, v.Mat.Cols)
					copy(m.Data, v.Mat.Data)
					m.Data[r.Intn(len(m.Data))] = s
					v.Mat = m
				}
			}
		}
		buf := AppendRow(nil, row)
		got, rest, err := DecodeRow(buf)
		if err != nil || len(rest) != 0 || len(got) != len(row) || row.EncodedLen() != len(buf) {
			return false
		}
		for i := range row {
			if !bitsEqual(got[i], row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropHashAgreesWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		// Encode/decode then hash: equal values must agree.
		buf := AppendValue(nil, v)
		w, _, err := DecodeValue(buf)
		if err != nil {
			return false
		}
		return v.Hash() == w.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecHostileHeaders: a count or shape that the input cannot hold is an
// error before it sizes an allocation. The first case used to end the process
// with "fatal error: runtime: out of memory", which recover cannot catch.
func TestCodecHostileHeaders(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	vector := append([]byte{byte(KindVector)}, make([]byte, 8)...) // label 0
	matrix := func(rows, cols uint32) []byte { return u32(u32([]byte{byte(KindMatrix)}, rows), cols) }
	row := func(vals ...[]byte) []byte {
		b := u32(nil, uint32(len(vals)))
		for _, v := range vals {
			b = append(b, v...)
		}
		return b
	}
	batch := func(rows ...[]byte) []byte {
		b := u32(nil, uint32(len(rows)))
		for _, r := range rows {
			b = append(b, r...)
		}
		return b
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"batch of 2^31-1 rows in 0 bytes", []byte{0xff, 0xff, 0xff, 0x7f}},
		{"batch of 2 rows in 4 bytes", u32(u32(nil, 2), 0)},
		{"row of 2^32-1 values", batch(u32(nil, 0xffffffff))},
		{"row of 3 values in 2 bytes", batch(append(u32(nil, 3), byte(KindNull), byte(KindNull)))},
		{"vector of 2^32-1 entries", batch(row(u32(vector, 0xffffffff)))},
		{"vector of 2 entries in 8 bytes", batch(row(append(u32(vector, 2), make([]byte, 8)...)))},
		{"matrix whose 8*rows*cols wraps to 0", batch(row(matrix(1<<30, 1<<31)))},
		{"matrix of (2^32-1)^2 entries", batch(row(matrix(0xffffffff, 0xffffffff)))},
		{"matrix of 2x2 in 24 bytes", batch(row(append(matrix(2, 2), make([]byte, 24)...)))},
		{"string of 2^32-1 bytes", batch(row(u32([]byte{byte(KindString)}, 0xffffffff)))},
	}
	for _, c := range cases {
		if rows, err := DecodeRows(c.buf); err == nil {
			t.Errorf("%s: decoded %d rows, want an error", c.name, len(rows))
		}
	}
}

// FuzzDecodeRows: DecodeRows never panics, refuses what its input cannot
// hold before allocating it, and re-encodes whatever it accepts to exactly
// the bytes it read.
func FuzzDecodeRows(f *testing.F) {
	f.Add(EncodeRows([]Row{{
		Null(), Bool(true), Bool(false), Int(-42), Double(3.14159), String_(""),
		String_("hello, codec"), Vector(linalg.VectorOf(1, -2, 3.5)),
		LabeledVector(linalg.VectorOf(9), 77), Matrix(linalg.Identity(3)), LabeledScalar(-1.5, 123),
	}}))
	f.Add(EncodeRows([]Row{{Int(1), Double(2)}, {String_("a"), Null()}, {Vector(linalg.VectorOf(5, 6))}}))
	f.Add(EncodeRows([]Row{{}, {Double(math.NaN()), Double(math.Inf(-1)), Double(math.Copysign(0, -1))}}))
	f.Add(EncodeRows([]Row{{Vector(linalg.NewVector(0)), Matrix(linalg.NewMatrix(0, 0))}}))
	f.Add(EncodeRows(nil))
	f.Add([]byte{9})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, err := DecodeRows(b)
		if err != nil {
			return
		}
		if got := EncodeRows(rows); !bytes.Equal(got, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, got)
		}
	})
}
