package exec

import (
	"errors"
	"slices"

	"relalg/internal/cluster"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// This file is the executor's one window stage. Every scan, filter,
// projection and join runs as a plan of the shape Project?(Filter*(X)). X is
// the stage's source of windows: a table's ScanPart windows, a materialized
// relation's partitions, or a hash or cross join's pair windows. The filters
// (a join's residual first) and the projection are its steps, a LIMIT above it
// may cut each partition, and it ends in one of three sinks: arena rows, the
// partition-local aggregate of the Agg above it, or the hash exchange that
// places a join input on its keys. Run's Scan, Project, Filter, Join, Cross
// and Limit cases, the aggregate's local phase and both inputs of a hash join
// all call runStage, and partStage.push is the only code that applies filters
// and projections to a window.

// stage is one Project?(Filter*(X)) chain and the consumer of its output.
type stage struct {
	filters []plan.Expr // innermost first; a join's residual comes first
	exprs   []plan.Expr // the projection; nil passes rows through
	out     plan.Schema
	limit   int       // per-partition row cut; < 0 for none
	agg     *plan.Agg // the aggregate whose local phase is the sink; nil for rows
	ex      *exchange // the hash exchange that is the sink; nil for rows
}

// exchange is a stage's hash-exchange sink: every output row goes to the
// partition its keys hash to. A stage whose output is already placed on the
// keys keeps its rows instead.
type exchange struct {
	keys    []plan.Expr
	buckets [][][]value.Row // [src][dst], installed by the stage's commits
}

// settle drops the exchange when the stage's output, over a source placed on
// keys, already sits where the exchange would send it. A projection drops the
// source's placement, and a single-partition source advertises none.
func (st *stage) settle(keys []string) {
	if st.ex != nil && st.exprs == nil && sameKeys(keys, keyStrings(st.ex.keys)) {
		st.ex = nil
	}
}

// bare reports whether the stage neither filters nor projects.
func (st *stage) bare() bool { return len(st.filters) == 0 && st.exprs == nil }

// runStage runs the stage rooted at n into st's sink. st.limit >= 0 cuts
// every partition after limit rows. With st.agg set, the rows go into the
// aggregate's partition-local phase, whose sealed group tables come back beside
// a relation that carries only the placement. With st.ex set, they go into its
// buckets unless the stage settles it. A node the adaptive re-planner has
// already materialized ends the chain: it is the stage's X.
func runStage(ctx *Context, n plan.Node, st *stage) (*Relation, []*groupTable, error) {
	st.out = n.Schema()
	x := n
	if p, ok := x.(*plan.Project); ok && ctx.bound[x] == nil {
		st.exprs = p.Exprs
		if st.exprs == nil {
			st.exprs = []plan.Expr{} // nil would mean "no projection"
		}
		x = p.Input
	}
	for {
		f, ok := x.(*plan.Filter)
		if !ok || ctx.bound[x] != nil {
			break
		}
		st.filters = append(st.filters, f.Pred)
		x = f.Input
	}
	slices.Reverse(st.filters) // collected outermost first
	if ctx.bound[x] == nil {
		switch s := x.(type) {
		case *plan.Scan:
			return st.scan(ctx, s)
		case *plan.Join, *plan.Cross:
			adapted, err := adaptPlan(ctx, x)
			if err != nil {
				return nil, nil, err
			}
			switch a := adapted.(type) {
			case *plan.Join:
				return runJoin(ctx, a, st)
			case *plan.Cross:
				return runCross(ctx, a, st)
			}
			x = adapted
		}
	}
	return st.relation(ctx, x)
}

// scan streams the table's windows through the stage: "scan" when it is
// bare, "pipeline" otherwise.
func (st *stage) scan(ctx *Context, s *plan.Scan) (*Relation, []*groupTable, error) {
	op := "pipeline"
	if st.bare() {
		op = "scan"
	}
	defer ctx.Timings.Track(op)()
	t, keys, err := scanParts(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	return st.run(ctx, op, !st.bare(), keys, false, func(ps *partStage, part int) error {
		return t.ScanPart(part, ps.rows)
	})
}

// relation materializes x and streams its partitions through the stage. The
// stage is timed apart from x, under the name of what it does.
func (st *stage) relation(ctx *Context, x plan.Node) (*Relation, []*groupTable, error) {
	in, err := Run(ctx, x)
	if err != nil {
		return nil, nil, err
	}
	st.settle(in.HashKeys)
	if st.bare() && st.agg == nil && st.ex == nil && st.limit < 0 {
		return in, nil, nil // a re-planned join region: nothing left to do
	}
	var op string
	switch {
	case st.exprs != nil:
		op = "project"
	case len(st.filters) > 0:
		op = "filter"
	case st.agg != nil:
		op = "aggregate"
	case st.ex != nil:
		op = "exchange"
	default:
		op = "limit"
	}
	defer ctx.Timings.Track(op)()
	t := MemTable(in.Parts)
	return st.run(ctx, op, !st.bare(), in.HashKeys, in.Single, func(ps *partStage, part int) error {
		return t.ScanPart(part, ps.rows)
	})
}

// run runs the stage as one cluster task per partition under op, the task
// and budget-error label. feed pushes a partition's windows. charges says
// whether the surviving lanes are new tuples: everything but a bare pass over
// a table or relation. They are the task's Produced count, with a budget peek
// every 4 096 during compute. keys and single are the source's placement,
// which filters keep and a projection loses its hash keys from. An exchange
// the placement does not settle gets every partition's buckets. Each attempt
// spills into its own scratch (see endScratch).
func (st *stage) run(ctx *Context, op string, charges bool, keys []string, single bool,
	feed func(ps *partStage, part int) error) (*Relation, []*groupTable, error) {
	st.settle(keys)
	out := make([][]value.Row, ctx.Cluster.Partitions())
	locals := make([]*groupTable, len(out))
	if st.ex != nil {
		st.ex.buckets = make([][][]value.Row, len(out))
	}
	err := ctx.Cluster.ParallelTasks(op, taskObs(ctx), func(part, attempt int) (cm cluster.Commit, err error) {
		scr := ctx.Spill.Scratch(attempt)
		defer endScratch(scr, &cm, &err)
		ps := newPartStage(ctx, st, part, scr)
		if charges {
			ps.charge = newCharger(ctx, op)
		}
		defer ps.release()
		err = feed(ps, part)
		if err == nil {
			err = ps.flushPairs()
		}
		if err != nil && !errors.Is(err, errStopScan) {
			return cluster.Commit{}, err
		}
		groups, err := ps.seal()
		if err != nil {
			return cluster.Commit{}, err
		}
		var produced int64
		if ps.charge != nil {
			produced = ps.charge.total
		}
		return cluster.Commit{Produced: produced, Install: func() error {
			out[part], locals[part] = ps.out, groups
			if ps.px != nil {
				ps.ex.buckets[part] = ps.px.buckets
			}
			return nil
		}}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rel := &Relation{Schema: st.out, Parts: out, HashKeys: keys, Single: single}
	if st.exprs != nil {
		// Rewriting the keys through the projection is not attempted.
		rel.HashKeys = nil
	}
	return rel, locals, nil
}

// endScratch ends a task attempt's spill scratch, deferred with the
// compute's results: a successful attempt's Commit gets the runs, bytes and
// file it spilled, so only the winning attempt's are counted; then the
// scratch is closed.
func endScratch(scr *spill.Scratch, cm *cluster.Commit, err *error) {
	if *err == nil {
		cm.SpillRuns, cm.SpillBytes, cm.SpillFiles = scr.Spilled()
	}
	if cerr := scr.Close(); cerr != nil && *err == nil {
		*cm, *err = cluster.Commit{}, cerr
	}
}

// errStopScan ends a partition's source early once its LIMIT cut is full.
var errStopScan = errors.New("exec: stage stopped at limit")

// lanes is one window of a stage: rows of a table or relation, join pairs,
// or the projected columns of either.
type lanes interface {
	plan.BatchSource
	// own returns lane i as a row that outlives the window: the row itself
	// when the window is made of rows, else one from a.
	own(i int, a *rowArena) value.Row
}

// partStage is one partition attempt of a stage. Its buffers live for the
// whole partition, so rows come out in input order whatever the window sizes.
type partStage struct {
	*stage
	scr    *spill.Scratch
	charge *charger    // nil when the stage makes no new tuples
	win    rowWindow   // the current window of rows or pairs
	pl, pr []value.Row // buffered join pairs: left rows, right rows
	sbuf   []int32
	proj   colsView // the current window's projected columns
	arena  rowArena
	out    []value.Row // the row sink
	pa     *partAgg    // with sink, the aggregate sink; nil for rows
	sink   *aggBuilder
	px     *partExchange // the exchange sink; nil for rows
}

// partExchange is one partition attempt's exchange sink: its rows by
// destination partition, and the current window's keys and their hashes.
type partExchange struct {
	buckets [][]value.Row
	ke      keyEval
}

// newPartStage sets up one partition attempt that spills into scr. With an
// aggregate sink it takes the aggregate's reservation; release returns it.
func newPartStage(ctx *Context, st *stage, part int, scr *spill.Scratch) *partStage {
	ps := &partStage{stage: st, scr: scr}
	reads := st.exprs
	if st.exprs != nil {
		ps.proj.cols = make([]*value.Col, len(st.exprs))
	}
	switch {
	case st.agg != nil:
		ps.pa = newPartAgg(ctx, st.agg, part, scr)
		ps.sink = ps.pa.builder(0, newGroupTable(st.agg, ps.pa.fuse))
		if st.exprs == nil {
			reads = ps.pa.reads
		}
	case st.ex != nil:
		ps.px = &partExchange{buckets: make([][]value.Row, ctx.Cluster.Partitions())}
		if st.exprs == nil {
			reads = st.ex.keys
		}
	}
	ps.win.reads = readSet(st.filters, reads)
	return ps
}

// seal returns the partition's sealed group table, or nil for a row sink.
func (ps *partStage) seal() (*groupTable, error) {
	if ps.pa == nil {
		return nil, nil
	}
	return ps.pa.seal(ps.sink)
}

// release returns the aggregate's reservation.
func (ps *partStage) release() {
	if ps.pa != nil {
		ps.pa.release()
	}
}

// full reports whether the LIMIT cut has been reached.
func (ps *partStage) full() bool { return ps.limit >= 0 && len(ps.out) >= ps.limit }

// intoRows reports whether the stage's sink is arena rows.
func (ps *partStage) intoRows() bool { return ps.sink == nil && ps.px == nil }

// rows feeds one window of a table or relation partition. A bare stage into
// rows keeps it without a copy, cut at the limit; anything else is pushed in
// windows of at most window rows.
func (ps *partStage) rows(rows []value.Row) error {
	if ps.bare() && ps.intoRows() {
		if ps.limit >= 0 {
			rows = rows[:min(len(rows), ps.limit-len(ps.out))]
		}
		if len(ps.out) == 0 {
			ps.out = rows
		} else {
			ps.out = append(ps.out, rows...)
		}
		if ps.full() {
			return errStopScan
		}
		return nil
	}
	most := len(rows)
	if ps.limit >= 0 {
		most = min(most, ps.limit-len(ps.out))
	}
	ps.arena.left += most * len(ps.exprs)
	if len(ps.filters) == 0 && ps.intoRows() {
		ps.out = slices.Grow(ps.out, most)
	}
	for lo := 0; lo < len(rows); lo += window {
		hi := min(lo+window, len(rows))
		ps.win.open(rows, nil, lo, hi)
		if err := ps.push(&ps.win, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// pair buffers one joined pair and pushes the buffer once it is a full
// window.
func (ps *partStage) pair(l, r value.Row) error {
	ps.pl = append(ps.pl, l)
	ps.pr = append(ps.pr, r)
	if len(ps.pl) < window {
		return nil
	}
	return ps.flushPairs()
}

// flushPairs pushes the buffered pairs and empties the buffer.
func (ps *partStage) flushPairs() error {
	n := len(ps.pl)
	if n == 0 {
		return nil
	}
	ps.win.open(ps.pl, ps.pr, 0, n)
	err := ps.push(&ps.win, n)
	ps.pl, ps.pr = ps.pl[:0], ps.pr[:0]
	return err
}

// push runs src's n lanes through the filters, the LIMIT cut and the
// projection into the sink. Predicates and projections evaluate columnar
// over the lanes still selected; a lane becomes a row only in the row or
// exchange sink, from the arena. It returns errStopScan once the cut is full.
func (ps *partStage) push(src lanes, n int) error {
	var sel []int32 // nil = every lane live
	for _, f := range ps.filters {
		c, err := plan.EvalVec(f, src, sel)
		if err != nil {
			return err
		}
		ps.sbuf = filterSel(c, n, sel, ps.sbuf)
		sel = ps.sbuf
		if len(sel) == 0 {
			return nil
		}
	}
	if ps.limit >= 0 {
		if room := ps.limit - len(ps.out); sel == nil && n > room {
			ps.sbuf = allSel(ps.sbuf, n)
			sel = ps.sbuf[:room]
		} else if len(sel) > room {
			sel = sel[:room]
		}
	}
	live := n
	if sel != nil {
		live = len(sel)
	}
	if err := ps.charge.tick(live); err != nil {
		return err
	}
	for j, e := range ps.exprs {
		c, err := plan.EvalVec(e, src, sel)
		if err != nil {
			return err
		}
		ps.proj.cols[j] = c
	}
	ps.proj.n = n
	out := src
	if ps.exprs != nil {
		out = &ps.proj
	}
	switch {
	case ps.sink != nil:
		return ps.sink.add(out, n, sel)
	case ps.px != nil:
		// The exchange keys evaluate over the stage's output, so a failing
		// key fails the stage before anything moves.
		if err := ps.px.ke.eval(ps.ex.keys, out, sel); err != nil {
			return err
		}
	}
	if sel == nil {
		ps.sbuf = allSel(ps.sbuf, n)
		sel = ps.sbuf
	}
	for _, i := range sel {
		r := out.own(int(i), &ps.arena)
		if ps.px == nil {
			ps.out = append(ps.out, r)
			continue
		}
		d := ps.px.ke.hashes[i] % uint64(len(ps.px.buckets))
		ps.px.buckets[d] = append(ps.px.buckets[d], r)
	}
	if ps.full() {
		return errStopScan
	}
	return nil
}

// arenaChunk is the most value slots a row arena allocates at once: large
// enough to amortize the per-row allocation down to noise.
const arenaChunk = 4096

// rowArena hands out value.Row storage carved from chunked allocations. One
// arena serves one partition goroutine, so no locking. Rows remain valid
// forever (the chunks are never reused) — the arena only batches what would
// otherwise be one allocation per row.
type rowArena struct {
	buf []value.Value
	// left, when > 0, bounds the slots still to be handed out: a chunk stops
	// there instead of rounding a short partition up to arenaChunk, which a
	// stored CREATE TABLE AS result would pin for as long as the table lives.
	left int
}

// alloc returns a zeroed row of n values with capacity clipped to n, so an
// append by a downstream consumer can never bleed into a neighbouring row.
func (a *rowArena) alloc(n int) value.Row {
	if n == 0 {
		return value.Row{}
	}
	if len(a.buf) < n {
		size := arenaChunk
		if a.left > 0 && a.left < size {
			size = a.left
		}
		if n > size {
			size = n
		}
		a.buf = make([]value.Value, size)
	}
	if a.left > 0 {
		a.left -= n
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return value.Row(r)
}
