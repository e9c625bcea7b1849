package spill

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/value"
)

func testRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.Int(int64(i)),
			value.Double(float64(i) * 1.5),
			value.String_(fmt.Sprintf("row-%d", i)),
			value.Vector(linalg.VectorOf(float64(i), float64(-i), 0.25)),
		}
	}
	return rows
}

// scratch returns an attempt-0 scratch of m that the test closes.
func scratch(t *testing.T, m *Manager) *Scratch {
	t.Helper()
	s := m.Scratch(0)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func writeRun(t *testing.T, s *Scratch, rows []value.Row) *Run {
	t.Helper()
	w := s.Writer("test")
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func readAll(t *testing.T, run *Run) []value.Row {
	t.Helper()
	rd := run.Reader()
	var out []value.Row
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func rowsEqual(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestRunRoundTrip(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rows := testRows(100)
	run := writeRun(t, scratch(t, m), rows)
	if run.Rows != 100 {
		t.Fatalf("run.Rows = %d", run.Rows)
	}
	if got := readAll(t, run); !rowsEqual(got, rows) {
		t.Fatal("read-back rows differ from written rows")
	}
	// A second sequential pass works too.
	if got := readAll(t, run); !rowsEqual(got, rows) {
		t.Fatal("second read pass differs")
	}
}

// TestRunMultiBlock forces several blocks in one run (rows with a fat vector
// exceed blockBytes quickly) and checks block framing is invisible to readers.
func TestRunMultiBlock(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	big := linalg.NewVector(8192) // 64KB payload per row
	for i := range big.Data {
		big.Data[i] = float64(i)
	}
	rows := make([]value.Row, 20)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Vector(big)}
	}
	run := writeRun(t, scratch(t, m), rows)
	if run.Bytes <= blockBytes {
		t.Fatalf("run.Bytes = %d: expected multiple blocks (> %d)", run.Bytes, blockBytes)
	}
	if got := readAll(t, run); !rowsEqual(got, rows) {
		t.Fatal("multi-block read-back differs")
	}
}

// TestNaNRoundTrip: spilled NaN payloads come back bit-identical (Equal is
// false for NaN, so compare bits directly).
func TestNaNRoundTrip(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rows := []value.Row{{value.Double(math.NaN()), value.Double(math.Inf(1))}}
	got := readAll(t, writeRun(t, scratch(t, m), rows))
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("shape mismatch: %v", got)
	}
	if math.Float64bits(got[0][0].D) != math.Float64bits(math.NaN()) && !math.IsNaN(got[0][0].D) {
		t.Fatalf("NaN did not round-trip: %v", got[0][0].D)
	}
	if !math.IsInf(got[0][1].D, 1) {
		t.Fatalf("+Inf did not round-trip: %v", got[0][1].D)
	}
}

// TestManagerCleanup: Manager.Close sweeps scratch files an attempt never
// closed, and a scratch closed after it has nothing left to remove.
func TestManagerCleanup(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	s1, s2 := m.Scratch(0), m.Scratch(1)
	writeRun(t, s1, testRows(10))
	writeRun(t, s2, testRows(5))
	dir := m.Dir()
	if dir == "" || !strings.Contains(filepath.Base(dir), DirPrefix) {
		t.Fatalf("temp dir %q", dir)
	}
	if m.LiveScratches() != 2 {
		t.Fatalf("live scratches = %d", m.LiveScratches())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("temp dir still exists after Close (stat err %v)", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent, and spilling after Close fails.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	w := m.Scratch(2).Writer("late")
	if err := w.Append(value.Row{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("spilling after Close succeeded")
	}
}

func TestManagerLazyDir(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	if m.Dir() != "" {
		t.Fatal("temp dir created before first spill")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHooksAccounting(t *testing.T) {
	var ioCalls int
	m := NewManager(1<<20, Hooks{
		TrackIO: func() func() { ioCalls++; return func() {} },
	})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := scratch(t, m)
	run := writeRun(t, s, testRows(50))
	if runs, bytes, files := s.Spilled(); runs != 1 || files != 1 || bytes != run.Bytes || bytes <= 0 {
		t.Fatalf("Spilled() = %d runs, %d bytes, %d files; run.Bytes = %d", runs, bytes, files, run.Bytes)
	}
	readAll(t, run)
	if ioCalls == 0 {
		t.Fatal("TrackIO never called")
	}
}

func TestDisabledManager(t *testing.T) {
	var m *Manager
	if m.Enabled() {
		t.Fatal("nil manager enabled")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if NewManager(0, Hooks{}).Enabled() {
		t.Fatal("zero-budget manager enabled")
	}
}

// scratchFiles lists the files in m's temp directory.
func scratchFiles(t *testing.T, m *Manager) []os.DirEntry {
	t.Helper()
	if m.Dir() == "" {
		return nil
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// TestOneFilePerScratch: every run of one scratch shares its one file, which
// Spilled counts once, and Close removes it.
func TestOneFilePerScratch(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := m.Scratch(0)
	runs := make([]*Run, 16)
	for i := range runs {
		runs[i] = writeRun(t, s, testRows(i+1))
	}
	if n := len(scratchFiles(t, m)); n != 1 || m.LiveScratches() != 1 {
		t.Fatalf("16 runs left %d files (%d live scratches), want 1", n, m.LiveScratches())
	}
	if runs, _, files := s.Spilled(); runs != 16 || files != 1 {
		t.Fatalf("Spilled() = %d runs, %d files; want 16, 1", runs, files)
	}
	for i, run := range runs {
		if got := readAll(t, run); !rowsEqual(got, testRows(i+1)) {
			t.Fatalf("run %d read back differs", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(scratchFiles(t, m)); n != 0 || m.LiveScratches() != 0 {
		t.Fatalf("after Close: %d files, %d live scratches", n, m.LiveScratches())
	}
}

// TestEmptyRunsCreateNoFile: a scratch whose runs are all empty never touches
// the disk, yet each run still counts as spilled.
func TestEmptyRunsCreateNoFile(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := scratch(t, m)
	for i := 0; i < 3; i++ {
		if got := readAll(t, writeRun(t, s, nil)); len(got) != 0 {
			t.Fatalf("empty run read back %d rows", len(got))
		}
	}
	if m.Dir() != "" || m.LiveScratches() != 0 {
		t.Fatalf("empty runs created dir %q, %d live scratches", m.Dir(), m.LiveScratches())
	}
	if runs, bytes, files := s.Spilled(); runs != 3 || bytes != 0 || files != 0 {
		t.Fatalf("Spilled() = %d runs, %d bytes, %d files; want 3, 0, 0", runs, bytes, files)
	}
}

// TestInterleavedRuns: two writers whose frames alternate in the file each
// read back their own rows in order.
func TestInterleavedRuns(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := scratch(t, m)
	big := linalg.NewVector(8192) // 64KB per row: a frame every few rows
	var want [2][]value.Row
	ws := [2]*Writer{s.Writer("a"), s.Writer("b")}
	for i := 0; i < 40; i++ {
		k := i % 2
		r := value.Row{value.Int(int64(i)), value.Vector(big)}
		want[k] = append(want[k], r)
		if err := ws[k].Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for k, w := range ws {
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(run.frames) < 2 {
			t.Fatalf("run %d has %d frames; the test needs them interleaved", k, len(run.frames))
		}
		if got := readAll(t, run); !rowsEqual(got, want[k]) {
			t.Fatalf("interleaved run %d read back differs", k)
		}
	}
}

// TestStaleAfterClose: a writer or run of a closed scratch returns an error.
func TestStaleAfterClose(t *testing.T) {
	m := NewManager(1<<20, Hooks{})
	defer func() {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s := m.Scratch(0)
	run := writeRun(t, s, testRows(10))
	w := s.Writer("stale")
	if err := w.Append(value.Row{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish on a closed scratch succeeded")
	}
	if _, _, err := run.Reader().Next(); err == nil {
		t.Fatal("reading a run of a closed scratch succeeded")
	}
}
