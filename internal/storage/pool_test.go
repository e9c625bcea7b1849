package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"relalg/internal/value"
)

// poolFixture builds a store whose table is several times larger than the
// buffer-pool budget, so nothing close to the whole table can be resident.
func poolFixture(t *testing.T, poolBytes int64) (*Store, *Table, []byte) {
	t.Helper()
	s, err := Open(t.TempDir(), Options{PageBytes: 1024, PoolBytes: poolBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tb, err := s.CreateTable("big", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := bigRows(5, 400, 32) // ~100 pages at 1KB pages
	for part := 0; part < 4; part++ {
		if err := tb.Append(part, rows[part*100:part*100+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, tb, value.EncodeRows(rows[:0:0])
}

func TestScanLargerThanPool(t *testing.T) {
	const budget = 8 << 10 // 8 pages' worth for a ~100-page table
	s, tb, _ := poolFixture(t, budget)
	var total int
	for part := 0; part < 4; part++ {
		rows, err := readPart(tb, part)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != 400 {
		t.Fatalf("scanned %d rows, want 400", total)
	}
	st := s.PoolStats()
	if st.PeakBytes > budget {
		t.Fatalf("peak pool usage %d exceeds budget %d", st.PeakBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("a table larger than the pool scanned with zero evictions")
	}
	if st.Misses == 0 {
		t.Fatal("no misses counted")
	}
	// A scan whose callback fails mid-partition leaves no page pinned.
	stop := errors.New("stop")
	calls := 0
	err := tb.ScanPart(1, func([]value.Row) error {
		if calls++; calls == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 3 {
		t.Fatalf("ScanPart = %v after %d windows, want the callback's error after 3", err, calls)
	}
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for _, fr := range s.pool.ring {
		if fr.pins != 0 {
			t.Fatalf("slot %d still has %d pins after the scans", fr.key.slot, fr.pins)
		}
	}
}

func TestRepeatScanHitsCache(t *testing.T) {
	s, tb, _ := poolFixture(t, 64<<20) // everything fits
	for part := 0; part < 4; part++ {
		if _, err := readPart(tb, part); err != nil {
			t.Fatal(err)
		}
	}
	first := s.PoolStats()
	for part := 0; part < 4; part++ {
		if _, err := readPart(tb, part); err != nil {
			t.Fatal(err)
		}
	}
	second := s.PoolStats()
	if second.Misses != first.Misses {
		t.Fatalf("second scan missed (%d → %d misses)", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Fatal("second scan recorded no hits")
	}
	if second.Evictions != 0 {
		t.Fatalf("evictions with an oversized budget: %d", second.Evictions)
	}
}

func TestWritebackBeforeCommitStaysBounded(t *testing.T) {
	// The insert path alone (seal → install dirty → evict/writeback) must
	// respect the budget: loading a table much larger than the pool cannot
	// buffer all its dirty pages.
	const budget = 4 << 10
	s, err := Open(t.TempDir(), Options{PageBytes: 1024, PoolBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tb, err := s.CreateTable("load", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(0, bigRows(9, 300, 32)); err != nil {
		t.Fatal(err)
	}
	mid := s.PoolStats()
	if mid.PeakBytes > budget {
		t.Fatalf("dirty pages overran the budget before commit: peak %d > %d", mid.PeakBytes, budget)
	}
	if mid.Writebacks == 0 {
		t.Fatal("no early writebacks despite a tiny pool")
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPartScans(t *testing.T) {
	const budget = 16 << 10
	s, tb, _ := poolFixture(t, budget)
	want := make([][]byte, 4)
	for part := 0; part < 4; part++ {
		rows, err := readPart(tb, part)
		if err != nil {
			t.Fatal(err)
		}
		want[part] = value.EncodeRows(rows)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	got := make([][]byte, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows, err := readPart(tb, g%4)
			if err != nil {
				errs[g] = err
				return
			}
			got[g] = value.EncodeRows(rows)
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(got[g], want[g%4]) {
			t.Fatalf("goroutine %d: concurrent scan differs from serial scan", g)
		}
	}
	if st := s.PoolStats(); st.PeakBytes > budget {
		t.Fatalf("concurrent scans overran the budget: peak %d > %d", st.PeakBytes, budget)
	}
}

func TestPageHandleDoubleRelease(t *testing.T) {
	s, tb, _ := poolFixture(t, 1<<20)
	pages, err := tb.partPages(0)
	if err != nil {
		t.Fatal(err)
	}
	k := frameKey{table: tb.id, slot: pages[0].Slot}
	pinsNow := func() int {
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		return s.pool.frames[k].pins
	}
	// Each withPage unpins exactly once, whether its callback succeeds or
	// fails: a second release would drive pins negative, a missed one leaves
	// it positive.
	fail := errors.New("fail")
	for _, want := range []error{nil, fail, nil} {
		err := s.pool.withPage(tb, pages[0], func([]byte) error {
			if got := pinsNow(); got != 1 {
				t.Fatalf("pins = %d inside withPage, want 1", got)
			}
			return want
		})
		if err != want {
			t.Fatalf("withPage = %v, want %v", err, want)
		}
		if got := pinsNow(); got != 0 {
			t.Fatalf("pins = %d after withPage returned %v", got, want)
		}
	}
}
