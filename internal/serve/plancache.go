package serve

import (
	"sync"
	"sync/atomic"

	"relalg/internal/plan"
)

// planCache memoizes optimized plans keyed on the statement's tokens
// (sqlparse.Piece.Key), so case, whitespace and comments share a plan. Entries
// record the catalog DDL version they were compiled under; a lookup only
// hits while that version is still current, so CREATE/DROP of any table or
// view invalidates every cached plan at once (coarse, but DDL is rare and
// the alternative — tracking per-plan table dependencies — buys little for
// this engine). Statistics refreshes from loads do not bump the version: a
// stale-stats plan is suboptimal, never wrong.
//
// Plans are immutable during execution (the engine copies nodes it needs to
// rewrite, e.g. subquery resolution), so one cached tree is handed to any
// number of concurrent executions.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*planEntry
	order   []string // FIFO eviction order
	hits    atomic.Int64
	misses  atomic.Int64
}

type planEntry struct {
	version int64 // catalog DDL version the plan was compiled under
	node    plan.Node
}

func newPlanCache(max int) *planCache {
	if max < 1 {
		max = 1
	}
	return &planCache{max: max, entries: map[string]*planEntry{}}
}

// lookup returns the cached plan for key if it was compiled under the given
// catalog version; it counts the hit or miss either way.
func (c *planCache) lookup(key string, version int64) (plan.Node, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok && e.version == version {
		c.hits.Add(1)
		return e.node, true
	}
	c.misses.Add(1)
	return nil, false
}

// store records a plan compiled under version. Stale entries (any version
// other than the current one) are dropped first; if the cache is still full
// the oldest entry goes.
func (c *planCache) store(key string, version int64, node plan.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		// Keep the newer compile; the key keeps its eviction slot.
		if version >= e.version {
			c.entries[key] = &planEntry{version: version, node: node}
		}
		return
	}
	if len(c.entries) >= c.max {
		kept := c.order[:0]
		for _, k := range c.order {
			if e, ok := c.entries[k]; ok && e.version != version {
				delete(c.entries, k)
			} else if ok {
				kept = append(kept, k)
			}
		}
		c.order = kept
		for len(c.entries) >= c.max && len(c.order) > 0 {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.entries[key] = &planEntry{version: version, node: node}
	c.order = append(c.order, key)
}
