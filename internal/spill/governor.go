package spill

import "sync/atomic"

// The memory governor tracks the working-set bytes of a query's operators
// against a single per-query byte budget (cluster.Config.MemoryBudgetBytes).
// Operators reserve bytes as their hash tables, sort buffers, and aggregation
// groups grow; when the governor denies a growth request, the operator spills
// part of its state to a temp-file run and releases the reservation instead
// of aborting. A budget of zero (or a nil governor) disables governance
// entirely, preserving the strictly-in-memory seed behaviour.

// minFloorBytes is the smallest working set every reservation may force even
// when the budget is exhausted: an operator always makes progress, so a
// budget below the working set degrades into spilling rather than deadlock.
const minFloorBytes = 4096

// maxFloorBytes caps the per-reservation forced floor so many concurrent
// partition operators cannot silently multiply a small budget away.
const maxFloorBytes = 256 << 10

// Governor arbitrates one query's memory budget across concurrently running
// partition operators. All methods are safe for concurrent use.
type Governor struct {
	budget int64
	used   atomic.Int64
}

// NewGovernor returns a governor over budget bytes; budget <= 0 means
// unlimited (every request granted, nothing tracked as pressure).
func NewGovernor(budget int64) *Governor {
	return &Governor{budget: budget}
}

// Budget returns the configured byte budget (<= 0 when unlimited).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Used returns the bytes currently reserved across all operators.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// tryGrow atomically charges n bytes if they fit the budget.
func (g *Governor) tryGrow(n int64) bool {
	for {
		u := g.used.Load()
		if u+n > g.budget {
			return false
		}
		if g.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// force charges n bytes unconditionally (the progress floor).
func (g *Governor) force(n int64) { g.used.Add(n) }

// release returns n bytes to the budget.
func (g *Governor) release(n int64) { g.used.Add(-n) }

// Reservation returns a named per-operator reservation. One reservation is
// owned by a single goroutine (one partition of one operator); only the
// underlying governor is shared.
func (g *Governor) Reservation(op string) *Reservation {
	r := &Reservation{g: g, op: op}
	if g != nil && g.budget > 0 {
		r.floor = g.budget / 16
		if r.floor < minFloorBytes {
			r.floor = minFloorBytes
		}
		if r.floor > maxFloorBytes {
			r.floor = maxFloorBytes
		}
	}
	return r
}

// Reservation tracks the bytes one operator instance holds. Grow returning
// false is the spill signal; the operator is expected to spill state, call
// Reset, and retry.
type Reservation struct {
	g     *Governor
	op    string
	held  int64
	floor int64
}

// Op returns the operator label the reservation was created with.
func (r *Reservation) Op() string { return r.op }

// Grow requests n more bytes. It returns true when the bytes were granted —
// either within the budget, or forced because the reservation is still under
// its progress floor (an operator must be able to hold at least one block of
// state or it could never spill anything). A false return means the caller
// should spill and Reset.
func (r *Reservation) Grow(n int64) bool {
	if r.g == nil || r.g.budget <= 0 {
		return true
	}
	if r.g.tryGrow(n) {
		r.held += n
		return true
	}
	if r.held+n <= r.floor {
		r.g.force(n)
		r.held += n
		return true
	}
	return false
}

// Force charges n bytes unconditionally. Used where spilling can no longer
// subdivide state (for example the final sub-partition of a grace join at
// maximum recursion depth): execution stays correct and the overshoot remains
// visible in Governor.Used.
func (r *Reservation) Force(n int64) {
	if r.g == nil || r.g.budget <= 0 {
		return
	}
	r.g.force(n)
	r.held += n
}

// Reset releases everything held, keeping the reservation usable.
func (r *Reservation) Reset() {
	if r.g != nil && r.held != 0 {
		r.g.release(r.held)
	}
	r.held = 0
}

// Release returns all held bytes; the reservation should not be grown again.
func (r *Reservation) Release() { r.Reset() }
