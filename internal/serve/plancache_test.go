package serve

import (
	"fmt"
	"testing"
	"time"

	"relalg/internal/catalog"
	"relalg/internal/core"
	"relalg/internal/plan"
	"relalg/internal/types"
)

func dummyNode(name string) plan.Node {
	meta := catalog.NewTableMeta(name, catalog.Schema{Cols: []catalog.Column{{Name: "a", Type: types.TInt}}}, 0)
	return &plan.Scan{Table: meta, Out: plan.Schema{{Name: "a", T: types.TInt}}}
}

func TestPlanCacheHitMissVersion(t *testing.T) {
	c := newPlanCache(8)
	if _, ok := c.lookup("select 1", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.store("select 1", 1, dummyNode("a"))
	if _, ok := c.lookup("select 1", 1); !ok {
		t.Fatal("stored plan missed")
	}
	// A DDL bump invalidates the entry even though the key matches.
	if _, ok := c.lookup("select 1", 2); ok {
		t.Fatal("stale plan served after version bump")
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	c.store("q0", 1, dummyNode("q0"))
	c.store("q1", 1, dummyNode("q1"))
	c.store("q2", 1, dummyNode("q2")) // evicts q0 (FIFO)
	if _, ok := c.lookup("q0", 1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.lookup("q1", 1); !ok {
		t.Fatal("q1 evicted prematurely")
	}
	if _, ok := c.lookup("q2", 1); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestPlanCacheEvictsStaleFirst(t *testing.T) {
	c := newPlanCache(2)
	c.store("old0", 1, dummyNode("old0"))
	c.store("old1", 1, dummyNode("old1"))
	// Version moved on; storing a current-version plan drops stale entries
	// rather than current ones.
	c.store("new0", 5, dummyNode("new0"))
	c.store("new1", 5, dummyNode("new1"))
	if _, ok := c.lookup("new0", 5); !ok {
		t.Fatal("current-version entry evicted while stale entries existed")
	}
	if _, ok := c.lookup("new1", 5); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestPlanCacheRestore(t *testing.T) {
	c := newPlanCache(4)
	c.store("q", 1, dummyNode("v1"))
	c.store("q", 3, dummyNode("v3")) // recompile under a newer version
	if _, ok := c.lookup("q", 1); ok {
		t.Fatal("old-version lookup hit after recompile")
	}
	if _, ok := c.lookup("q", 3); !ok {
		t.Fatal("recompiled plan missed")
	}
}

func TestAdmissionCountsAndBounds(t *testing.T) {
	a := newAdmission(2)
	n1 := a.acquire()
	n2 := a.acquire()
	if n1 != 1 || n2 != 2 {
		t.Fatalf("active counts %d, %d", n1, n2)
	}
	release := make(chan struct{})
	got := make(chan int)
	done := make(chan struct{})
	go func() {
		n := a.acquire()
		got <- n
		<-release
		a.release()
		close(done)
	}()
	// The third acquire must wait until a slot frees; poll until it has
	// registered its wait so the release below is ordered after it.
	for i := 0; a.waits.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-got:
		t.Fatalf("third acquire admitted at %d while full", n)
	default:
	}
	a.release()
	n3 := <-got
	if n3 > 2 {
		t.Fatalf("active %d exceeds limit 2", n3)
	}
	if a.waits.Load() == 0 {
		t.Fatal("blocked acquire not counted as a wait")
	}
	if p := a.peak.Load(); p != 2 {
		t.Fatalf("peak %d, want 2", p)
	}
	close(release)
	<-done
	a.release()
	if a.active.Load() != 0 {
		t.Fatalf("active %d after all releases", a.active.Load())
	}
}

// TestLeaseIsFixedMemoryShare: a statement's lease is a fixed share of the
// memory pool, the same however many other statements are admitted. A
// positive pool gives pool/MaxConcurrent (at least 1 byte), a negative pool
// no budget (-1), and a zero pool the database's own budget (the zero lease).
func TestLeaseIsFixedMemoryShare(t *testing.T) {
	db := core.Open(core.DefaultConfig())
	for _, c := range []struct {
		name string
		pool int64
		want int64
	}{
		{"pool share", 12 << 10, 4 << 10},
		{"share at least 1", 2, 1},
		{"unlimited", -1, -1},
		{"inherit", 0, 0},
	} {
		srv := New(db, Config{MaxConcurrent: 3, MemoryPoolBytes: c.pool})
		for admitted := 0; admitted <= 3; admitted++ {
			if got := srv.lease(); got != (core.Resources{MemoryBudgetBytes: c.want}) {
				t.Fatalf("%s with %d admitted: lease %+v, want MemoryBudgetBytes %d", c.name, admitted, got, c.want)
			}
			if admitted < 3 {
				srv.adm.acquire()
			}
		}
	}
}

func TestPlanCacheManyKeys(t *testing.T) {
	c := newPlanCache(64)
	for i := 0; i < 200; i++ {
		c.store(fmt.Sprintf("q%d", i), 1, dummyNode("x"))
	}
	if n := len(c.entries); n > 64 {
		t.Fatalf("cache grew to %d entries past max 64", n)
	}
}
