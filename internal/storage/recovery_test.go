package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"relalg/internal/fault"
	"relalg/internal/value"
)

// workload runs a fixed multi-table create/append/commit/drop sequence
// against a store, recording after every successful commit what a recovered
// store must look like. It stops at the first error (a torn write poisons
// the store, as a crash would) and returns the last committed expectation.
//
// The expectation maps table name → EncodeRows of its full contents in part
// order; absent tables must be absent after recovery.
func workload(s *Store) (committed map[string][]byte, err error) {
	committed = map[string][]byte{}
	record := func(names ...string) error {
		next := map[string][]byte{}
		for _, name := range names {
			tb, ok := s.Table(name)
			if !ok {
				return fmt.Errorf("workload: table %q missing", name)
			}
			var all []value.Row
			for part := 0; part < tb.Parts(); part++ {
				rows, err := readPart(tb, part)
				if err != nil {
					return err
				}
				all = append(all, rows...)
			}
			next[name] = value.EncodeRows(all)
		}
		committed = next
		return nil
	}

	a, err := s.CreateTable("a", 2, []byte("schema-a"))
	if err != nil {
		return committed, err
	}
	if err := record("a"); err != nil {
		return committed, err
	}
	rows := bigRows(99, 60, 24)
	for round := 0; round < 3; round++ {
		for part := 0; part < 2; part++ {
			if err := a.Append(part, rows[(round*2+part)*10:(round*2+part)*10+10]); err != nil {
				return committed, err
			}
		}
		if err := a.Commit(); err != nil {
			return committed, err
		}
		if err := record("a"); err != nil {
			return committed, err
		}
	}
	b, err := s.CreateTable("b", 1, []byte("schema-b"))
	if err != nil {
		return committed, err
	}
	// CreateTable is durable on return: a crash right here must recover an
	// empty b alongside a.
	if err := record("a", "b"); err != nil {
		return committed, err
	}
	if err := b.Append(0, rows[50:60]); err != nil {
		return committed, err
	}
	if err := b.Commit(); err != nil {
		return committed, err
	}
	if err := record("a", "b"); err != nil {
		return committed, err
	}
	if err := s.DropTable("a"); err != nil {
		return committed, err
	}
	if err := record("b"); err != nil {
		return committed, err
	}
	return committed, nil
}

// verifyRecovered reopens dir and checks it matches the expectation exactly.
func verifyRecovered(t *testing.T, dir string, want map[string][]byte, label string) {
	t.Helper()
	s, err := Open(dir, Options{PageBytes: 512})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer func() { _ = s.Close() }()
	tables := s.Tables()
	if len(tables) != len(want) {
		t.Fatalf("%s: recovered %d tables, committed state has %d", label, len(tables), len(want))
	}
	for _, tb := range tables {
		wantEnc, ok := want[tb.Name()]
		if !ok {
			t.Fatalf("%s: recovered unexpected table %q", label, tb.Name())
		}
		var all []value.Row
		for part := 0; part < tb.Parts(); part++ {
			rows, err := readPart(tb, part)
			if err != nil {
				t.Fatalf("%s: table %q part %d: %v", label, tb.Name(), part, err)
			}
			all = append(all, rows...)
		}
		if !bytes.Equal(value.EncodeRows(all), wantEnc) {
			t.Fatalf("%s: table %q differs from last committed state", label, tb.Name())
		}
	}
}

// TestTornWriteEveryBoundary tears the workload's Nth physical write for
// every N the fault-free run performs — every page write, every journal
// append, every table header — and checks that recovery lands exactly on
// the last committed state each time.
func TestTornWriteEveryBoundary(t *testing.T) {
	clean, err := Open(t.TempDir(), Options{PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload(clean); err != nil {
		t.Fatalf("fault-free workload: %v", err)
	}
	writes := clean.WriteCount()
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	if writes < 10 {
		t.Fatalf("workload too small to be interesting: %d writes", writes)
	}

	for n := int64(1); n <= writes; n++ {
		dir := t.TempDir()
		inj := fault.New(fault.Config{Seed: uint64(n), StorageFailAfter: n})
		s, err := Open(dir, Options{PageBytes: 512, WriteFault: inj.StorageWrite})
		if err != nil {
			t.Fatalf("write %d: open: %v", n, err)
		}
		want, err := workload(s)
		if err == nil {
			t.Fatalf("write %d: workload survived its torn write", n)
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("write %d: workload died of %v, not the torn write", n, err)
		}
		s.Crash()
		verifyRecovered(t, dir, want, fmt.Sprintf("write %d", n))
	}
}

// TestTornWriteSeededSweep drives the probabilistic torn-write injector at
// several seeds; whether or not the workload survives, recovery must land on
// the last committed state.
func TestTornWriteSeededSweep(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		dir := t.TempDir()
		inj := fault.New(fault.Config{Seed: seed, TornWriteProb: 0.02})
		s, err := Open(dir, Options{PageBytes: 512, WriteFault: inj.StorageWrite})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		want, err := workload(s)
		if err != nil && !errors.Is(err, ErrCrashed) {
			t.Fatalf("seed %d: workload died of %v, not a torn write", seed, err)
		}
		s.Crash()
		verifyRecovered(t, dir, want, fmt.Sprintf("seed %d", seed))
	}
}

// TestPoisonAfterTear checks a torn write leaves the store unusable — no
// operation may quietly succeed against a store whose process is "dead".
func TestPoisonAfterTear(t *testing.T) {
	inj := fault.New(fault.Config{StorageFailAfter: 3})
	s, err := Open(t.TempDir(), Options{PageBytes: 512, WriteFault: inj.StorageWrite})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	_, werr := workload(s)
	if !errors.Is(werr, ErrCrashed) {
		t.Fatalf("workload: %v", werr)
	}
	if _, err := s.CreateTable("late", 1, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CreateTable after tear: %v", err)
	}
	if tb, ok := s.Table("a"); ok {
		if err := tb.Append(0, bigRows(1, 1, 4)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("Append after tear: %v", err)
		}
		if _, err := readPart(tb, 0); !errors.Is(err, ErrCrashed) {
			t.Fatalf("ScanPart after tear: %v", err)
		}
	}
}
