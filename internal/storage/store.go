// Package storage is the persistent paged table store: fixed-slot page
// files per table, a write-ahead journal for catalog and commit records,
// and a shared buffer pool bounding how many page bytes sit in memory.
//
// A data directory holds:
//
//	MANIFEST       blockio header only: format magic/version + page size
//	LOCK           flock'd while a process has the directory open
//	journal.wal    blockio frames of JSON records: create/meta/commit/drop
//	tables/<id>.tbl
//	               blockio header, then page slots of pageBytes each
//
// Durability protocol: page images are written (through the buffer pool)
// and the table file synced BEFORE the journal frame describing them is
// appended and synced. Recovery is therefore exactly two truncations: the
// journal is cut at its first torn frame (blockio.ErrTorn), and each table
// file is cut back to the extent its committed journal records describe.
// Anything a crash interrupted — a half-written page, a half-appended
// journal frame, a table file with no journal record — is discarded, and
// the store reopens at the last committed state bit-for-bit.
//
// Torn writes themselves are injected, not waited for: Options.WriteFault
// (wired from internal/fault via the cluster) may cut any physical write
// short, after which the store poisons itself with ErrCrashed — the process
// is considered dead from that write on, exactly as a real torn write only
// matters because the process died mid-write.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"relalg/internal/blockio"
	"relalg/internal/value"
)

const (
	manifestMagic = "LASTORE1"
	journalMagic  = "LAJRNL01"
	tableMagic    = "LATBL001"

	// FormatVersion is the on-disk format version shared by the manifest,
	// journal, table files and page headers. Opening a directory written by
	// a different version, such as a version 1 directory of compressed-float
	// pages, fails fast with a clear error.
	FormatVersion = 2

	// DefaultPageBytes is the slot size when Options.PageBytes is zero.
	DefaultPageBytes = 64 << 10
	// DefaultPoolBytes is the buffer-pool budget when Options.PoolBytes is zero.
	DefaultPoolBytes = 64 << 20
	// minPageBytes keeps the header/payload split sane.
	minPageBytes = 256
	// maxParts bounds a table's partition count, in CreateTable and in
	// journal replay, before anything is sized from it.
	maxParts = 1 << 16

	maxJournalPayload = 64 << 20
)

// ErrCrashed poisons a store after an injected torn write: the simulated
// process is dead and every subsequent operation fails until reopen.
var ErrCrashed = errors.New("storage: simulated crash: torn write")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// Options configures Open.
type Options struct {
	// PageBytes is the slot size. Zero means DefaultPageBytes for a fresh
	// directory and whatever the manifest says for an existing one; a
	// non-zero value that disagrees with an existing manifest is an error.
	PageBytes int
	// PoolBytes is the buffer-pool budget in bytes (zero: DefaultPoolBytes).
	PoolBytes int64
	// WriteFault, when set, may tear any physical write: it returns how many
	// bytes to keep and whether to fail. A torn write poisons the store with
	// ErrCrashed. Wired from the fault injector; nil in production.
	WriteFault func(seq int64, n int) (keep int, fail bool)
}

// jrec is one journal record. Op is "create", "meta", "commit", or "drop".
type jrec struct {
	Op    string  `json:"op"`
	ID    uint64  `json:"id,omitempty"`
	Name  string  `json:"name,omitempty"`
	Parts int     `json:"parts,omitempty"`
	Meta  []byte  `json:"meta,omitempty"`
	Pages []jpage `json:"pages,omitempty"`
}

// jpage records one committed page: its slot range, owning partition, row
// count, and physical image length (pages need not fill their last slot).
type jpage struct {
	Slot  uint32 `json:"slot"`
	Slots uint32 `json:"slots"`
	Part  uint32 `json:"part"`
	Rows  uint32 `json:"rows"`
	Bytes uint32 `json:"bytes"`
}

type pageInfo struct {
	Slot  uint32
	Slots uint32
	Part  uint32
	Rows  uint32
	Bytes uint32
}

// Store is an open data directory.
type Store struct {
	dir       string
	pageBytes int
	pool      *pool
	fault     func(seq int64, n int) (int, bool)
	writeSeq  atomic.Int64

	errMu  sync.Mutex
	failed error

	jmu        sync.Mutex // journal appends; acquired after s.mu or t.mu
	journal    *os.File
	journalEnd int64
	recSeq     uint32

	mu     sync.Mutex // catalog: tables map, nextID
	lockF  *os.File
	tables map[string]*Table
	nextID uint64
	closed bool
}

// Open opens (creating if needed) the data directory at dir. It fails fast
// when the directory is not writable, locked by another process, or written
// by a different format version or page size.
func Open(dir string, opts Options) (*Store, error) {
	pageBytes := opts.PageBytes
	if pageBytes == 0 {
		pageBytes = DefaultPageBytes
	}
	if pageBytes < minPageBytes {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageBytes, minPageBytes)
	}
	poolBytes := opts.PoolBytes
	if poolBytes == 0 {
		poolBytes = DefaultPoolBytes
	}
	if poolBytes < 0 {
		return nil, fmt.Errorf("storage: negative buffer-pool budget %d", poolBytes)
	}
	if err := os.MkdirAll(filepath.Join(dir, "tables"), 0o777); err != nil {
		return nil, fmt.Errorf("storage: data directory %s is not writable: %w", dir, err)
	}

	s := &Store{
		dir:    dir,
		pool:   newPool(poolBytes),
		fault:  opts.WriteFault,
		tables: make(map[string]*Table),
		nextID: 1,
	}
	ok := false
	defer func() {
		if !ok {
			s.closeFiles()
		}
	}()

	// Exclusive directory lock, released automatically when the process dies
	// (so a SIGKILL'd server never wedges its data directory).
	lockF, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("storage: data directory %s is not writable: %w", dir, err)
	}
	s.lockF = lockF
	if err := syscall.Flock(int(lockF.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return nil, fmt.Errorf("storage: data directory %s is locked by another process", dir)
	}

	if err := s.openManifest(opts.PageBytes, pageBytes); err != nil {
		return nil, err
	}
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	if err := s.openTables(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// openManifest reads or creates MANIFEST, settling the store's page size.
func (s *Store) openManifest(requested, fallback int) error {
	path := filepath.Join(s.dir, "MANIFEST")
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.pageBytes = fallback
		buf, err := blockio.AppendHeader(nil, blockio.Header{
			Magic: manifestMagic, Version: FormatVersion, Extra: uint32(fallback),
		})
		if err != nil {
			return err
		}
		nf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			return fmt.Errorf("storage: data directory %s is not writable: %w", s.dir, err)
		}
		if _, err := nf.Write(buf); err == nil {
			err = nf.Sync()
		}
		if err != nil {
			_ = nf.Close()
			return fmt.Errorf("storage: write manifest: %w", err)
		}
		return nf.Close()
	}
	if err != nil {
		return fmt.Errorf("storage: open manifest: %w", err)
	}
	defer func() { _ = f.Close() }()
	h, err := blockio.ReadHeader(f, manifestMagic, FormatVersion)
	if err != nil {
		return fmt.Errorf("storage: %s is not a compatible data directory: %w", s.dir, err)
	}
	s.pageBytes = int(h.Extra)
	if s.pageBytes < minPageBytes {
		return fmt.Errorf("storage: manifest page size %d below minimum %d", s.pageBytes, minPageBytes)
	}
	if requested != 0 && requested != s.pageBytes {
		return fmt.Errorf("storage: %s was created with page size %d; requested %d", s.dir, s.pageBytes, requested)
	}
	return nil
}

// openJournal opens journal.wal, replays its records, and truncates a torn
// tail back to the last complete frame.
func (s *Store) openJournal() error {
	path := filepath.Join(s.dir, "journal.wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("storage: data directory %s is not writable: %w", s.dir, err)
	}
	s.journal = f
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat journal: %w", err)
	}
	if st.Size() == 0 {
		buf, err := blockio.AppendHeader(nil, blockio.Header{
			Magic: journalMagic, Version: FormatVersion, Extra: uint32(s.pageBytes),
		})
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("storage: write journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("storage: sync journal: %w", err)
		}
		s.journalEnd = blockio.HeaderLen
		return nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	if _, err := blockio.ReadHeader(f, journalMagic, FormatVersion); err != nil {
		return fmt.Errorf("storage: %s journal: %w", s.dir, err)
	}
	byID := make(map[uint64]*Table)
	offset := int64(blockio.HeaderLen)
	for {
		payload, _, err := blockio.ReadFrame(f, maxJournalPayload)
		if err != nil {
			if errors.Is(err, blockio.ErrTorn) {
				// The frame a crash interrupted: discard exactly this tail.
				if err := f.Truncate(offset); err != nil {
					return fmt.Errorf("storage: truncate torn journal tail: %w", err)
				}
				break
			}
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("storage: read journal: %w", err)
		}
		var rec jrec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("storage: decode journal record: %w", err)
		}
		if err := s.applyRecord(rec, byID); err != nil {
			return err
		}
		offset += blockio.FrameSize(len(payload))
		s.recSeq++
	}
	s.journalEnd = offset
	return nil
}

// applyRecord replays one journal record into the in-memory catalog.
func (s *Store) applyRecord(rec jrec, byID map[uint64]*Table) error {
	switch rec.Op {
	case "create":
		if rec.Parts < 1 || rec.Parts > maxParts || rec.ID < s.nextID {
			return fmt.Errorf("storage: journal creates table %q with id %d (next %d) and %d partitions (want 1..%d)",
				rec.Name, rec.ID, s.nextID, rec.Parts, maxParts)
		}
		if _, ok := s.tables[rec.Name]; ok {
			return fmt.Errorf("storage: journal creates table %q twice", rec.Name)
		}
		t := &Table{st: s, id: rec.ID, name: rec.Name, parts: rec.Parts, meta: rec.Meta}
		s.tables[rec.Name] = t
		byID[rec.ID] = t
		if rec.ID >= s.nextID {
			s.nextID = rec.ID + 1
		}
	case "meta":
		t, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("storage: journal meta record for unknown table id %d", rec.ID)
		}
		t.meta = rec.Meta
	case "commit":
		t, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("storage: journal commit record for unknown table id %d", rec.ID)
		}
		for _, p := range rec.Pages {
			if int64(p.Part) >= int64(t.parts) || p.Bytes < pageHeaderLen || p.Slots != s.slotsFor(int(p.Bytes)) {
				return fmt.Errorf("storage: table %q: journal commits a bad page %+v", t.name, p)
			}
			t.pages = append(t.pages, pageInfo(p))
			t.rows += int64(p.Rows)
			if end := p.Slot + p.Slots; end > t.nextSlot {
				t.nextSlot = end
			}
		}
	case "drop":
		t, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("storage: journal drop record for unknown table id %d", rec.ID)
		}
		delete(s.tables, t.name)
		delete(byID, rec.ID)
	default:
		return fmt.Errorf("storage: unknown journal record op %q", rec.Op)
	}
	return nil
}

// openTables opens every live table's page file, truncates uncommitted
// tails, and removes orphan files (tables dropped or never journaled).
func (s *Store) openTables() error {
	live := make(map[uint64]bool, len(s.tables))
	for _, name := range s.tableNames() {
		t := s.tables[name]
		live[t.id] = true
		f, err := os.OpenFile(s.tablePath(t.id), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("storage: table %q: open page file: %w", t.name, err)
		}
		if _, err := blockio.ReadHeader(f, tableMagic, FormatVersion); err != nil {
			_ = f.Close()
			return fmt.Errorf("storage: table %q: %w", t.name, err)
		}
		extent := int64(blockio.HeaderLen)
		for _, p := range t.pages {
			if end := s.slotOffset(p.Slot) + int64(p.Bytes); end > extent {
				extent = end
			}
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return err
		}
		if st.Size() < extent {
			_ = f.Close()
			return fmt.Errorf("storage: table %q: page file holds %d bytes but journal commits %d — data loss outside the torn tail", t.name, st.Size(), extent)
		}
		if st.Size() > extent {
			// Pages written but never committed: the discarded torn tail.
			if err := f.Truncate(extent); err != nil {
				_ = f.Close()
				return fmt.Errorf("storage: table %q: truncate uncommitted tail: %w", t.name, err)
			}
		}
		t.f = f
		t.open = make([]openPage, t.parts)
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "tables"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		idStr, isTbl := strings.CutSuffix(e.Name(), ".tbl")
		if !isTbl {
			continue
		}
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil || !live[id] {
			// Dropped table or a create interrupted before its journal
			// record: either way the file is garbage now.
			_ = os.Remove(filepath.Join(s.dir, "tables", e.Name()))
		}
	}
	return nil
}

func (s *Store) tablePath(id uint64) string {
	return filepath.Join(s.dir, "tables", fmt.Sprintf("%d.tbl", id))
}

// slotOffset maps a slot number to its file offset.
func (s *Store) slotOffset(slot uint32) int64 {
	return blockio.HeaderLen + int64(slot)*int64(s.pageBytes)
}

// slotsFor is how many slots a page image of n bytes occupies.
func (s *Store) slotsFor(n int) uint32 { return uint32((n + s.pageBytes - 1) / s.pageBytes) }

// pagePayloadCap is the payload size at which an open page seals.
func (s *Store) pagePayloadCap() int { return s.pageBytes - pageHeaderLen }

// PageBytes returns the store's page slot size.
func (s *Store) PageBytes() int { return s.pageBytes }

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// PoolStats snapshots the buffer-pool counters.
func (s *Store) PoolStats() PoolStats { return s.pool.stats() }

// WriteCount returns how many physical writes the store has issued — the
// sequence space Options.WriteFault draws from, which lets the recovery
// sweep tear every write of a workload in turn.
func (s *Store) WriteCount() int64 { return s.writeSeq.Load() }

func (s *Store) setFailed(err error) {
	s.errMu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.errMu.Unlock()
}

func (s *Store) failedErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.failed
}

// writeAt is the single funnel for physical writes: it numbers the write,
// gives the fault hook a chance to tear it, and poisons the store when the
// write does not complete.
func (s *Store) writeAt(f *os.File, off int64, data []byte, what string) error {
	if err := s.failedErr(); err != nil {
		return err
	}
	seq := s.writeSeq.Add(1)
	if s.fault != nil {
		if keep, fail := s.fault(seq, len(data)); fail {
			if keep > 0 {
				if keep > len(data) {
					keep = len(data)
				}
				_, _ = f.WriteAt(data[:keep], off)
			}
			err := fmt.Errorf("%w: %s write %d kept %d of %d bytes", ErrCrashed, what, seq, keep, len(data))
			s.setFailed(err)
			return err
		}
	}
	if _, err := f.WriteAt(data, off); err != nil {
		werr := fmt.Errorf("storage: %s write: %w", what, err)
		s.setFailed(werr)
		return werr
	}
	return nil
}

// appendRecord durably appends one journal record. The caller must have
// already made the data the record describes durable.
func (s *Store) appendRecord(rec jrec) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("storage: encode journal record: %w", err)
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	frame := blockio.AppendFrame(nil, s.recSeq, payload)
	if err := s.writeAt(s.journal, s.journalEnd, frame, "journal"); err != nil {
		return err
	}
	if err := s.journal.Sync(); err != nil {
		werr := fmt.Errorf("storage: sync journal: %w", err)
		s.setFailed(werr)
		return werr
	}
	s.journalEnd += int64(len(frame))
	s.recSeq++
	return nil
}

// CreateTable creates a new empty table with the given partition count and
// opaque metadata blob (the catalog's serialized schema).
func (s *Store) CreateTable(name string, parts int, meta []byte) (*Table, error) {
	if parts < 1 || parts > maxParts {
		return nil, fmt.Errorf("storage: table %q: partition count %d (want 1..%d)", name, parts, maxParts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	id := s.nextID
	s.nextID++
	f, err := os.OpenFile(s.tablePath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, fmt.Errorf("storage: table %q: create page file: %w", name, err)
	}
	hdr, err := blockio.AppendHeader(nil, blockio.Header{
		Magic: tableMagic, Version: FormatVersion, Extra: uint32(s.pageBytes),
	})
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := s.writeAt(f, 0, hdr, "table header"); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: table %q: sync page file: %w", name, err)
	}
	// File is durable; now the record. A tear between the two leaves an
	// orphan file that the next open removes.
	if err := s.appendRecord(jrec{Op: "create", ID: id, Name: name, Parts: parts, Meta: meta}); err != nil {
		_ = f.Close()
		return nil, err
	}
	t := &Table{st: s, id: id, name: name, parts: parts, meta: meta, f: f,
		open: make([]openPage, parts)}
	s.tables[name] = t
	return t, nil
}

// DropTable removes a table: journal record first, then the page file.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := s.appendRecord(jrec{Op: "drop", ID: t.id}); err != nil {
		return err
	}
	delete(s.tables, name)
	t.dropped = true
	s.pool.invalidateTable(t)
	if t.f != nil {
		_ = t.f.Close()
		t.f = nil
	}
	// Best effort: recovery removes the file anyway if this is interrupted.
	_ = os.Remove(s.tablePath(t.id))
	return nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the live tables sorted by name.
func (s *Store) Tables() []*Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Table, 0, len(s.tables))
	for _, name := range s.tableNames() {
		out = append(out, s.tables[name])
	}
	return out
}

// tableNames returns the table names sorted; callers hold s.mu (or are
// still single-threaded inside Open).
func (s *Store) tableNames() []string {
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close releases the directory. Uncommitted appends are discarded — the
// same contract a crash has, so Close/reopen and crash/reopen agree.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeFiles()
	s.setFailed(ErrClosed)
	return nil
}

// Crash abandons the store without any shutdown path: file handles close
// mid-flight and nothing is flushed or journaled. It is the in-process
// stand-in for SIGKILL that the recovery tests reopen after.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.closeFiles()
	s.setFailed(ErrCrashed)
}

// closeFiles closes every open handle; the flock drops with LOCK's fd.
func (s *Store) closeFiles() {
	for _, name := range s.tableNames() {
		t := s.tables[name]
		if t.f != nil {
			_ = t.f.Close()
			t.f = nil
		}
	}
	if s.journal != nil {
		_ = s.journal.Close()
		s.journal = nil
	}
	if s.lockF != nil {
		_ = s.lockF.Close()
		s.lockF = nil
	}
}

// openPage accumulates one partition's value-codec rows, behind a row count
// written when the page seals, so buf becomes value.EncodeRows of the rows.
type openPage struct {
	buf   []byte
	nrows uint32
}

// Table is one stored table: a page file plus its committed page index.
type Table struct {
	st    *Store
	id    uint64
	name  string
	parts int

	mu          sync.RWMutex
	meta        []byte
	f           *os.File
	pages       []pageInfo
	rows        int64
	nextSlot    uint32
	open        []openPage
	pending     []pageInfo
	pendingRows int64
	dropped     bool
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Parts returns the partition count.
func (t *Table) Parts() int { return t.parts }

// Rows returns the committed row count.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Meta returns the table's metadata blob.
func (t *Table) Meta() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.meta
}

// SetMeta durably replaces the metadata blob (schema changes, refreshed
// statistics).
func (t *Table) SetMeta(meta []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return fmt.Errorf("storage: table %q is dropped", t.name)
	}
	if err := t.st.appendRecord(jrec{Op: "meta", ID: t.id, Meta: meta}); err != nil {
		return err
	}
	t.meta = meta
	return nil
}

// Append encodes rows into partition part's open page, sealing pages as
// they fill. A page seals before the row that would take it past its slot,
// so a full page takes one slot; only a row larger than a slot, alone on
// its page, spans several. Appended rows are invisible to scans until Commit.
func (t *Table) Append(part int, rows []value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return fmt.Errorf("storage: table %q is dropped", t.name)
	}
	if err := t.st.failedErr(); err != nil {
		return err
	}
	if part < 0 || part >= t.parts {
		return fmt.Errorf("storage: table %q: partition %d of %d", t.name, part, t.parts)
	}
	op := &t.open[part]
	limit := t.st.pagePayloadCap()
	for _, r := range rows {
		if op.nrows == 0 {
			op.buf = append(op.buf[:0], 0, 0, 0, 0) // the row count, set at seal
		}
		at := len(op.buf)
		op.buf = value.AppendRow(op.buf, r)
		if len(op.buf) > limit && op.nrows > 0 {
			// The row overflows a page that holds others: it opens the next.
			op.buf = op.buf[:at]
			if err := t.sealLocked(part); err != nil {
				return err
			}
			op.buf = value.AppendRow(append(op.buf[:0], 0, 0, 0, 0), r)
		}
		op.nrows++
		if len(op.buf) >= limit {
			if err := t.sealLocked(part); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealLocked turns partition part's open page into a page image, assigns it
// slots, and installs it dirty in the pool; the physical write happens at
// commit (or earlier, if the pool evicts it).
func (t *Table) sealLocked(part int) error {
	op := &t.open[part]
	if op.nrows == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(op.buf, op.nrows)
	data := encodePage(uint32(part), op.nrows, op.buf)
	pi := pageInfo{Slot: t.nextSlot, Slots: t.st.slotsFor(len(data)), Part: uint32(part), Rows: op.nrows, Bytes: uint32(len(data))}
	t.nextSlot += pi.Slots
	if err := t.st.pool.install(t, pi, data); err != nil {
		return err
	}
	t.pending = append(t.pending, pi)
	t.pendingRows += int64(op.nrows)
	op.buf = nil
	op.nrows = 0
	return nil
}

// writePageAt writes a page image into its slot (pool writeback path).
func (t *Table) writePageAt(slot uint32, data []byte) error {
	return t.st.writeAt(t.f, t.st.slotOffset(slot), data, fmt.Sprintf("table %q page", t.name))
}

// Commit seals all open pages, makes every pending page durable, and
// appends the journal record that makes them visible. On return the rows of
// all Appends since the last Commit are committed atomically: recovery
// either sees all of them or none.
func (t *Table) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped {
		return fmt.Errorf("storage: table %q is dropped", t.name)
	}
	for part := range t.open {
		if err := t.sealLocked(part); err != nil {
			return err
		}
	}
	if len(t.pending) == 0 {
		return t.st.failedErr()
	}
	if err := t.st.pool.flushTable(t); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		werr := fmt.Errorf("storage: table %q: sync page file: %w", t.name, err)
		t.st.setFailed(werr)
		return werr
	}
	rec := jrec{Op: "commit", ID: t.id, Pages: make([]jpage, len(t.pending))}
	for i, pi := range t.pending {
		rec.Pages[i] = jpage(pi)
	}
	if err := t.st.appendRecord(rec); err != nil {
		return err
	}
	t.pages = append(t.pages, t.pending...)
	t.rows += t.pendingRows
	t.pending = nil
	t.pendingRows = 0
	return nil
}

// partPages snapshots the committed pages of one partition.
func (t *Table) partPages(part int) ([]pageInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.dropped {
		return nil, fmt.Errorf("storage: table %q is dropped", t.name)
	}
	if err := t.st.failedErr(); err != nil {
		return nil, err
	}
	var pages []pageInfo
	for _, pi := range t.pages {
		if int(pi.Part) == part {
			pages = append(pages, pi)
		}
	}
	return pages, nil
}

// ScanPart streams partition part's rows, one decoded page per call of fn.
// The pages are those committed when the scan starts; each is pinned only
// while it decodes, and the rows fn receives own their storage.
func (t *Table) ScanPart(part int, fn func(rows []value.Row) error) error {
	pages, err := t.partPages(part)
	if err != nil {
		return err
	}
	for _, pi := range pages {
		var rows []value.Row
		err := t.st.pool.withPage(t, pi, func(image []byte) (err error) {
			rows, err = decodePage(image, pi)
			return err
		})
		if err == nil {
			err = fn(rows)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
