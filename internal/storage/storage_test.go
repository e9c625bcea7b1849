package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/value"
)

// rng is a splitmix64 for deterministic test payloads.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// testRows builds rows covering every value kind with adversarial floats.
func testRows() []value.Row {
	nan := math.Float64frombits(0x7ff800000000beef)
	return []value.Row{
		{value.Null(), value.Bool(true), value.Int(-7), value.Double(math.Inf(-1)), value.String_("hello")},
		{value.String_(""), value.LabeledScalar(math.Copysign(0, -1), 99)},
		{value.Vector(&linalg.Vector{Data: []float64{}})},
		{value.LabeledVector(&linalg.Vector{Data: []float64{0, 0, nan, 0}}, 3)},
		{value.Matrix(&linalg.Matrix{Rows: 0, Cols: 5, Data: []float64{}})}, // degenerate: 0×5
		{value.Matrix(&linalg.Matrix{Rows: 3, Cols: 1, Data: []float64{1, 0, math.Inf(1)}})},
		{value.Matrix(&linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{0, 0, 0, 0}})},
		{value.Int(0), value.Vector(&linalg.Vector{Data: []float64{math.SmallestNonzeroFloat64, -0.0, 1e308}})},
	}
}

// bigRows builds deterministic multi-part content big enough to span pages.
func bigRows(seed uint64, n, veclen int) []value.Row {
	r := rng(seed)
	rows := make([]value.Row, n)
	for i := range rows {
		data := make([]float64, veclen)
		for j := range data {
			if r.next()%3 == 0 {
				data[j] = r.float() * 100
			}
		}
		rows[i] = value.Row{value.Int(int64(i)), value.Vector(&linalg.Vector{Data: data})}
	}
	return rows
}

// readPart collects one partition's rows, page window by page window.
func readPart(tb *Table, part int) ([]value.Row, error) {
	var out []value.Row
	err := tb.ScanPart(part, func(rows []value.Row) error {
		out = append(out, rows...)
		return nil
	})
	return out, err
}

// snapshot encodes a table's full committed contents part by part.
func snapshot(t *testing.T, tb *Table) []byte {
	t.Helper()
	var all []value.Row
	for part := 0; part < tb.Parts(); part++ {
		rows, err := readPart(tb, part)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	return value.EncodeRows(all)
}

func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PageBytes: 1024, PoolBytes: 1 << 20}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateTable("m", 3, []byte(`{"schema":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	rows := bigRows(7, 200, 40)
	for part := 0; part < 3; part++ {
		if err := tb.Append(part, rows[part*60:part*60+60]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetMeta([]byte(`{"schema":"v2"}`)); err != nil {
		t.Fatal(err)
	}
	// A second, empty table and a dropped one exercise catalog replay.
	if _, err := s.CreateTable("empty", 1, []byte("e")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("doomed", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("doomed"); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, tb)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tb2, ok := s2.Table("m")
	if !ok {
		t.Fatal("table m lost across restart")
	}
	if got := snapshot(t, tb2); !bytes.Equal(got, want) {
		t.Fatal("restart is not EncodeRows-exact")
	}
	if string(tb2.Meta()) != `{"schema":"v2"}` {
		t.Fatalf("meta lost: %q", tb2.Meta())
	}
	if tb2.Rows() != 180 {
		t.Fatalf("rows = %d, want 180", tb2.Rows())
	}
	if e, ok := s2.Table("empty"); !ok || e.Rows() != 0 {
		t.Fatal("empty table lost or grew")
	}
	if _, ok := s2.Table("doomed"); ok {
		t.Fatal("dropped table resurrected")
	}
	if names := len(s2.Tables()); names != 2 {
		t.Fatalf("Tables() = %d entries, want 2", names)
	}
}

func TestUncommittedAppendsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateTable("x", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(0, bigRows(1, 10, 8)[:10]); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, tb)
	// Appended but never committed: must vanish across restart.
	if err := tb.Append(0, bigRows(2, 50, 8)); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tb2, ok := s2.Table("x")
	if !ok {
		t.Fatal("table lost")
	}
	if got := snapshot(t, tb2); !bytes.Equal(got, want) {
		t.Fatal("uncommitted append leaked into recovered state")
	}
}

func TestOpenFailFast(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "locked") {
			t.Fatalf("second open: %v", err)
		}
	})
	t.Run("page size mismatch", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{PageBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{PageBytes: 2048}); err == nil || !strings.Contains(err.Error(), "page size") {
			t.Fatalf("mismatched page size: %v", err)
		}
	})
	t.Run("not a data dir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("definitely not a manifest"), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "compatible") {
			t.Fatalf("garbage manifest: %v", err)
		}
	})
	t.Run("unwritable path", func(t *testing.T) {
		dir := t.TempDir()
		file := filepath.Join(dir, "plainfile")
		if err := os.WriteFile(file, []byte("x"), 0o666); err != nil {
			t.Fatal(err)
		}
		// A path through a regular file can never become a directory.
		if _, err := Open(filepath.Join(file, "data"), Options{}); err == nil || !strings.Contains(err.Error(), "not writable") {
			t.Fatalf("path through file: %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		// Version 1 directories hold compressed-float pages this build
		// cannot decode; they must be refused at Open, not at a scan.
		for _, version := range []uint32{1, FormatVersion + 1} {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(m[8:], version) // the version word
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), m, 0o666); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("version %d: %v", version, err)
			}
		}
	})
}

// TestFullPagesTakeOneSlot: rows smaller than a page fill pages of exactly one
// slot each. A page seals before the row that would take it past its slot, not
// after, so no full page overshoots into a second slot.
func TestFullPagesTakeOneSlot(t *testing.T) {
	s, err := Open(t.TempDir(), Options{PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tb, err := s.CreateTable("t", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := bigRows(7, 300, 12) // ~110 bytes a row, ~9 rows a page
	if err := tb.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, tb); !bytes.Equal(got, value.EncodeRows(rows)) {
		t.Fatal("rows changed across the page boundaries")
	}
	if len(tb.pages) < 10 {
		t.Fatalf("%d pages, want the rows spread over at least 10", len(tb.pages))
	}
	for _, pi := range tb.pages {
		if pi.Slots != 1 {
			t.Fatalf("page %+v takes %d slots, want 1", pi, pi.Slots)
		}
	}
	if tb.nextSlot != uint32(len(tb.pages)) {
		t.Fatalf("%d pages take %d slots", len(tb.pages), tb.nextSlot)
	}
}

func TestOversizedRowSpansSlots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]float64, 2000) // ~16KB raw, far beyond one 512B slot
	for i := range big {
		big[i] = float64(i) * 1.5
	}
	tb, err := s.CreateTable("wide", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{{value.Matrix(&linalg.Matrix{Rows: 40, Cols: 50, Data: big})}}
	if err := tb.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	want := value.EncodeRows(rows)
	if got := snapshot(t, tb); !bytes.Equal(got, want) {
		t.Fatal("oversized row mangled")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tb2, _ := s2.Table("wide")
	if got := snapshot(t, tb2); !bytes.Equal(got, want) {
		t.Fatal("oversized row mangled across restart")
	}
}
