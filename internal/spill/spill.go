// Package spill is the engine's out-of-core layer: a per-query memory
// governor (a byte budget shared by all operators of one query, tracked via
// the row codec's encoded sizes) and a scratch-file run format that operators
// write sorted runs and hash partitions into when the governor denies them
// memory. It is what turns the executor's strictly-in-memory hash join, hash
// aggregation, and sort into grace hash join, hybrid hash aggregation, and
// external merge sort — bounded memory over unbounded data, the property the
// paper's "Fail" table entries show the comparison systems losing.
//
// Every run one task attempt spills lives in that attempt's Scratch: one
// file, created on the attempt's first frame write and removed by
// Scratch.Close when the attempt ends. A run is a list of frames in it, in
// the shared internal/blockio format (the checksummed frames the storage
// engine's journal uses too): each frame's payload is aux=rowCount rows in
// the value package's binary row encoding (the same codec shuffles use, so a
// spilled row round-trips bit-identically — NaN payloads, labels, and matrix
// shapes included), and the checksum turns silent scratch-file corruption
// into a diagnosable decode error instead of garbage rows. Writers come only
// from a Scratch, so a retried attempt always spills into a fresh file under
// its own attempt number, and nothing it wrote outlives it.
//
// All scratch files of one query live in one MkdirTemp directory that
// Manager.Close removes at query end.
package spill

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"relalg/internal/blockio"
	"relalg/internal/value"
)

// DirPrefix names the per-query temp directories (under os.TempDir()); the
// cleanup tests key on it.
const DirPrefix = "relalg-spill-"

// blockBytes is the target encoded payload size of one frame;
// maxBlockPayload caps what a reader will allocate for a frame (one giant
// row can legitimately exceed the target, but a corrupt length prefix is
// caught by the frame checksum and this bound).
const (
	blockBytes      = 256 << 10
	maxBlockPayload = 1 << 30
)

// errScratchClosed is what a writer or run of a closed scratch returns.
var errScratchClosed = errors.New("spill: scratch closed")

// Hooks connect the spill layer to its query: the "spill" Timings label and
// the cluster's write-fault draw. Either may be nil. Spill counts are each
// Scratch's own (Spilled).
type Hooks struct {
	// TrackIO returns a stopwatch-stop function; it brackets frame reads and
	// writes so spill IO shows up as its own entry in the per-operator timing
	// breakdown.
	TrackIO func() func()
	// WriteFault, when set, is consulted once per run writer with the run's
	// label and the owning task's attempt number; a non-nil return makes the
	// writer's block writes fail with that error. This is the fault-injection
	// point for spill write failures — the core wires it to the cluster's
	// injector, which never faults a task's final allowed attempt.
	WriteFault func(label string, attempt int) error
}

// Manager owns one query's spill state: the governor, the temp directory,
// and every scratch file created under it. Safe for concurrent use by the
// per-partition task attempts.
type Manager struct {
	gov   *Governor
	hooks Hooks

	mu     sync.Mutex
	dir    string
	live   int // scratch files created and not yet removed
	closed bool
}

// NewManager creates a manager with the given byte budget (<= 0 disables
// spilling entirely). The temp directory is created lazily on first spill, so
// queries that stay within budget never touch the filesystem.
func NewManager(budget int64, hooks Hooks) *Manager {
	return &Manager{gov: NewGovernor(budget), hooks: hooks}
}

// Enabled reports whether a memory budget is active (nil-safe).
func (m *Manager) Enabled() bool { return m != nil && m.gov.Budget() > 0 }

// Governor returns the query's memory governor (nil-safe).
func (m *Manager) Governor() *Governor {
	if m == nil {
		return nil
	}
	return m.gov
}

// Dir returns the temp directory, or "" before the first spill.
func (m *Manager) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// LiveScratches returns the number of scratch files currently on disk.
func (m *Manager) LiveScratches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// track starts the IO stopwatch, returning the stop function.
func (m *Manager) track() func() {
	if m.hooks.TrackIO == nil {
		return func() {}
	}
	return m.hooks.TrackIO()
}

// newFile creates a scratch file, creating the temp directory on first use.
func (m *Manager) newFile() (*os.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("spill: manager closed")
	}
	if m.dir == "" {
		dir, err := os.MkdirTemp("", DirPrefix)
		if err != nil {
			return nil, fmt.Errorf("spill: create temp dir: %w", err)
		}
		m.dir = dir
	}
	f, err := os.CreateTemp(m.dir, "attempt-")
	if err != nil {
		return nil, fmt.Errorf("spill: create scratch file: %w", err)
	}
	m.live++
	return f, nil
}

// Close removes the temp directory and every scratch file under it. It is
// called once at query end; scratch files cannot be created afterwards.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.live = 0
	if m.dir == "" {
		return nil
	}
	if err := os.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("spill: remove temp dir: %w", err)
	}
	return nil
}

// Scratch returns the spill file of one task attempt. The attempt owns it:
// a Scratch is not safe for concurrent use, and the attempt must Close it
// when it ends. No file exists until the first frame is written.
func (m *Manager) Scratch(attempt int) *Scratch {
	return &Scratch{m: m, attempt: attempt}
}

// Scratch is one task attempt's spill file: every run the attempt writes is a
// list of frames appended to it.
type Scratch struct {
	m       *Manager
	attempt int
	f       *os.File // nil until the first frame
	end     int64    // the file's size: where the next frame goes
	closed  bool
	runs    int64 // runs finished
	bytes   int64 // frame bytes of those runs
}

// Spilled returns the runs the attempt finished, their frame bytes, and the
// files it created (0 or 1): the counts its task's Commit carries.
func (s *Scratch) Spilled() (runs, bytes, files int64) {
	if s.f != nil {
		files = 1
	}
	return s.runs, s.bytes, files
}

// Writer starts a run. The label names the operator and partition; with the
// scratch's attempt it keys the write-fault draw, so a retried task redraws
// its faults under a fresh (and eventually clean) attempt.
func (s *Scratch) Writer(label string) *Writer {
	w := &Writer{s: s}
	if s.m.hooks.WriteFault != nil {
		w.fail = s.m.hooks.WriteFault(label, s.attempt)
	}
	return w
}

// Close closes and removes the file. Writers and runs of a closed scratch
// fail.
func (s *Scratch) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	cerr := s.f.Close()
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		// Manager.Close already swept the directory.
		return cerr
	}
	m.live--
	if err := errors.Join(cerr, os.Remove(s.f.Name())); err != nil {
		return fmt.Errorf("spill: close scratch: %w", err)
	}
	return nil
}

// extent is one frame's place in the scratch file.
type extent struct{ off, n int64 }

// appendFrame writes one frame at the end of the file, creating the file on
// the first, and returns where it went.
func (s *Scratch) appendFrame(nrows uint32, payload []byte) (extent, error) {
	if s.closed {
		return extent{}, errScratchClosed
	}
	if s.f == nil {
		f, err := s.m.newFile()
		if err != nil {
			return extent{}, err
		}
		s.f = f
	}
	stop := s.m.track()
	defer stop()
	n, err := blockio.WriteFrame(io.NewOffsetWriter(s.f, s.end), nrows, payload)
	if err != nil {
		return extent{}, fmt.Errorf("spill: write block: %w", err)
	}
	e := extent{s.end, n}
	s.end += n
	return e, nil
}

// Writer appends rows to one run, framing them into blocks. It belongs to its
// scratch's attempt.
type Writer struct {
	s      *Scratch
	block  []byte // encoded rows of the current block
	nrows  uint32 // rows in the current block
	frames []extent
	rows   int64
	bytes  int64
	done   bool
	fail   error // injected write fault; every block write fails with it
}

// Append encodes one row into the current block, writing the block out as a
// frame when it reaches the target size.
func (w *Writer) Append(r value.Row) error {
	w.block = value.AppendRow(w.block, r)
	w.nrows++
	w.rows++
	if len(w.block) >= blockBytes {
		return w.flushBlock()
	}
	return nil
}

// Rows returns the rows appended so far.
func (w *Writer) Rows() int64 { return w.rows }

func (w *Writer) flushBlock() error {
	if w.nrows == 0 {
		return nil
	}
	if w.fail != nil {
		return fmt.Errorf("spill: write block: %w", w.fail)
	}
	e, err := w.s.appendFrame(w.nrows, w.block)
	if err != nil {
		return err
	}
	w.frames = append(w.frames, e)
	w.bytes += e.n
	w.block = w.block[:0]
	w.nrows = 0
	return nil
}

// Finish writes the last block, counts the run in its scratch, and returns
// the readable Run. The writer must not be used afterwards.
func (w *Writer) Finish() (*Run, error) {
	if w.done {
		return nil, fmt.Errorf("spill: writer already finished")
	}
	w.done = true
	if w.s.closed {
		return nil, errScratchClosed
	}
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	w.s.runs++
	w.s.bytes += w.bytes
	return &Run{s: w.s, frames: w.frames, Rows: w.rows, Bytes: w.bytes}, nil
}

// Run is one finished, readable spill run: frames in its scratch file.
type Run struct {
	s      *Scratch
	frames []extent
	Rows   int64
	Bytes  int64
}

// Reader starts a sequential read of the run. A run supports any number of
// read passes (each Reader is independent); readers share the scratch's file
// and hold nothing to close.
func (r *Run) Reader() *Reader { return &Reader{s: r.s, frames: r.frames} }

// Reader streams a run's rows back, decoding one frame at a time.
type Reader struct {
	s      *Scratch
	frames []extent // frames not yet read
	block  []value.Row
	i      int
}

// Next returns the next row. The second result is false at end of run.
func (r *Reader) Next() (value.Row, bool, error) {
	for r.i >= len(r.block) {
		ok, err := r.readBlock()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
	}
	row := r.block[r.i]
	r.i++
	return row, true, nil
}

// readBlock loads the next frame; false means end of run.
func (r *Reader) readBlock() (bool, error) {
	if r.s.closed {
		return false, errScratchClosed
	}
	if len(r.frames) == 0 {
		return false, nil
	}
	e := r.frames[0]
	r.frames = r.frames[1:]
	stop := r.s.m.track()
	defer stop()
	buf, nrowsU32, err := blockio.ReadFrame(io.NewSectionReader(r.s.f, e.off, e.n), maxBlockPayload)
	if err != nil {
		return false, fmt.Errorf("spill: read block: %w", err)
	}
	rows := make([]value.Row, nrowsU32)
	for i := range rows {
		rows[i], buf, err = value.DecodeRow(buf)
		if err != nil {
			return false, fmt.Errorf("spill: decode spilled row: %w", err)
		}
	}
	if len(buf) != 0 {
		return false, fmt.Errorf("spill: %d trailing bytes in block", len(buf))
	}
	r.block, r.i = rows, 0
	return true, nil
}
