package exec

import (
	"fmt"
	"slices"
	"sort"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// This file holds the windowed operators beneath the stage (stage.go): the
// one window over rows or pairs it reads, hash-join build/probe (including the
// grace spill legs), and partition-local aggregation process windows of rows as
// per-column arrays with selection vectors instead of dispatching the
// expression tree per row.
// Rows are visited in input order whatever the window size, so output rows
// and their order, tuple charges, spill decisions and spill run contents do
// not depend on it. Every key is evaluated and hashed by keyEval: a join
// input's exchange, build and probe, the grace scatter and aggregate grouping
// all agree on a key's hash, and so does value.HashRowKey, which places
// PARTITION BY HASH tables where the exchange would send their rows.

// batchWindow is how many rows an operator gathers into columns at a time.
const batchWindow = 1024

// window is batchWindow; only this package's tests assign it, to put window
// boundaries inside small inputs.
var window = batchWindow

// rowWindow is the one plan.BatchSource over rows: a table's or relation's
// rows[lo:hi], or a window of join pairs, left[lo:hi] beside right[lo:hi],
// whose left row's columns come before the right row's. Opening it gathers
// the consumer's read set in one value.GatherMulti pass over each side's
// rows; a column outside the read set is gathered alone on first use.
type rowWindow struct {
	reads       []int       // the read set: ascending distinct column indexes
	left, right []value.Row // right is nil for a window of rows
	lo, hi      int
	split       int // the width of a left row
	cols        []value.Col
	have        []bool
	idxs        []int // GatherMulti's arguments
	dst         []*value.Col
}

// readSet returns the ascending distinct column indexes the expression lists
// reference.
func readSet(lists ...[]plan.Expr) []int {
	seen := map[int]bool{}
	for _, list := range lists {
		for _, e := range list {
			if e == nil {
				continue
			}
			plan.Walk(e, func(x plan.Expr) {
				if c, ok := x.(*plan.Col); ok {
					seen[c.Idx] = true
				}
			})
		}
	}
	reads := make([]int, 0, len(seen))
	for i := range seen {
		reads = append(reads, i)
	}
	sort.Ints(reads)
	return reads
}

// open points the window at the non-empty left[lo:hi], paired lane by lane
// with right[lo:hi] unless right is nil, and gathers the read set.
func (w *rowWindow) open(left, right []value.Row, lo, hi int) {
	w.left, w.right, w.lo, w.hi = left, right, lo, hi
	w.split = len(left[lo])
	width := w.split
	if right != nil {
		width += len(right[lo])
	}
	w.cols = slices.Grow(w.cols[:0], width)[:width]
	w.have = slices.Grow(w.have[:0], width)[:width]
	clear(w.have)
	w.gather(w.reads)
}

// gather gathers the columns of idxs that the window does not have yet, in
// one pass over each side's rows.
func (w *rowWindow) gather(idxs []int) {
	w.gatherSide(w.left, 0, w.split, idxs)
	if w.right != nil {
		w.gatherSide(w.right, w.split, len(w.cols), idxs)
	}
}

// gatherSide gathers the columns of idxs in [from, to) from side, whose
// column j is the window's column from+j.
func (w *rowWindow) gatherSide(side []value.Row, from, to int, idxs []int) {
	w.idxs, w.dst = w.idxs[:0], w.dst[:0]
	for _, idx := range idxs {
		if idx >= from && idx < to && !w.have[idx] {
			w.idxs = append(w.idxs, idx-from)
			w.dst = append(w.dst, &w.cols[idx])
			w.have[idx] = true
		}
	}
	if len(w.idxs) > 0 {
		value.GatherMulti(side, w.lo, w.hi, w.idxs, w.dst)
	}
}

// BatchLen implements plan.BatchSource.
func (w *rowWindow) BatchLen() int { return w.hi - w.lo }

// BatchCol implements plan.BatchSource.
func (w *rowWindow) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= len(w.cols) {
		return nil, fmt.Errorf("exec: batch column %d out of range (width %d)", idx, len(w.cols))
	}
	if !w.have[idx] {
		one := [1]int{idx}
		w.gather(one[:])
	}
	return &w.cols[idx], nil
}

// own returns lane i as a row: a row window's row itself, which outlives the
// window, or a pair concatenated into a row from the arena.
func (w *rowWindow) own(i int, a *rowArena) value.Row {
	l := w.left[w.lo+i]
	if w.right == nil {
		return l
	}
	r := append(a.alloc(len(w.cols))[:0], l...)
	return append(r, w.right[w.lo+i]...)
}

// filterSel compacts the live lanes where pred evaluated to BOOLEAN true
// (anything else, NULL included, drops). sel nil means all n lanes were live.
// The result is written into dst (grown as needed); when dst aliases sel the
// in-place compaction is safe because both cursors move in ascending order
// and the write index never passes the read index.
func filterSel(c *value.Col, n int, sel, dst []int32) []int32 {
	if dst == nil {
		// Never return nil: callers use nil to mean "every lane live", so an
		// empty result must stay distinguishable from a dense one.
		dst = make([]int32, 0, n)
	}
	dst = dst[:0]
	if !c.Generic {
		if c.Kind != value.KindBool {
			return dst // homogeneous non-boolean predicate keeps nothing
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if c.B[i] {
					dst = append(dst, int32(i))
				}
			}
		} else {
			for _, i := range sel {
				if c.B[i] {
					dst = append(dst, i)
				}
			}
		}
		return dst
	}
	keep := func(i int32) bool {
		v := c.Any[i]
		return v.Kind == value.KindBool && v.B
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if keep(int32(i)) {
				dst = append(dst, int32(i))
			}
		}
	} else {
		for _, i := range sel {
			if keep(i) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// allSel returns the dense selection [0,n) in buf.
func allSel(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// keyEval is the reusable vectorized key-evaluation state for one window:
// the key columns and the combined key-tuple hashes, equal lane for lane to
// value.HashRowKey of the key values.
type keyEval struct {
	cols    []*value.Col
	hashes  []uint64
	scratch []uint64
}

// eval computes the key columns and combined hashes for the lanes of src named
// by sel (every lane when sel is nil).
func (k *keyEval) eval(keys []plan.Expr, src plan.BatchSource, sel []int32) error {
	n := src.BatchLen()
	if cap(k.cols) < len(keys) {
		k.cols = make([]*value.Col, len(keys))
	}
	k.cols = k.cols[:len(keys)]
	if cap(k.hashes) < n {
		k.hashes = make([]uint64, n)
		k.scratch = make([]uint64, n)
	}
	k.hashes = k.hashes[:n]
	k.scratch = k.scratch[:n]
	for i, e := range keys {
		c, err := plan.EvalVec(e, src, sel)
		if err != nil {
			return err
		}
		k.cols[i] = c
	}
	for i := range k.hashes {
		k.hashes[i] = value.KeyHashInit
	}
	for _, c := range k.cols {
		c.HashesInto(k.scratch, sel)
		value.CombineKeyHashes(k.hashes, k.scratch, sel)
	}
	return nil
}

// keyFootprintAt is the governed cost of holding the key tuple at lane i,
// computed from the columns without materializing the values.
func (k *keyEval) keyFootprintAt(i int) int64 {
	n := int64(32)
	for _, c := range k.cols {
		n += int64(c.SizeBytesAt(i))
	}
	return n
}

// --- hash join ---------------------------------------------------------------

// run joins buildRows against probeRows. Without a memory budget this is the
// strictly-in-memory hash join; with one, a denied build-table reservation
// switches the partition to grace mode.
func (pj *partJoin) run(buildRows, probeRows []value.Row) error {
	if !pj.ctx.spillEnabled() {
		table, _, err := pj.buildTable(buildRows, nil, false)
		if err != nil {
			return err
		}
		return pj.probe(table, probeRows)
	}
	res := pj.ctx.Spill.Governor().Reservation("hash join build")
	defer res.Release()
	table, ok, err := pj.buildTable(buildRows, res, false)
	if err != nil {
		return err
	}
	if ok {
		return pj.probe(table, probeRows)
	}
	// The build side does not fit. Discard the partial table (re-reading the
	// original slice keeps the spill runs in input order, which the partial
	// table holds only for the rows it reached) and grace-partition.
	res.Reset()
	return pj.grace(buildRows, probeRows, res, 0)
}

// joinTable is a hash join's build side: its distinct keys in a key table,
// and its rows' indexes grouped by key id, each id's in input order.
type joinTable struct {
	keys       keyTable
	rows       []value.Row
	idx, start []int32 // rows[idx[start[id]:start[id+1]]] are key id's rows
}

// keyWindows evaluates keys, whose columns are reads, over rows a window at a
// time and hands fn each window's first row and its keys. An error from fn
// ends the loop.
func (pj *partJoin) keyWindows(rows []value.Row, keys []plan.Expr, reads []int, fn func(lo int, ke *keyEval) error) error {
	var (
		w  = rowWindow{reads: reads}
		ke keyEval
	)
	for lo := 0; lo < len(rows); lo += window {
		w.open(rows, nil, lo, min(lo+window, len(rows)))
		if err := ke.eval(keys, &w, nil); err != nil {
			return err
		}
		if err := fn(lo, &ke); err != nil {
			return err
		}
	}
	return nil
}

// buildTable builds the hash table over rows: key evaluation and hashing are
// columnar, rows are inserted in input order. With a reservation, a denied
// growth aborts the build and returns ok=false; with force set the bytes are
// charged unconditionally instead (max recursion depth). The reservation
// grows row by row, so a denial lands on the same row at every window size.
func (pj *partJoin) buildTable(rows []value.Row, res *spill.Reservation, force bool) (*joinTable, bool, error) {
	t := &joinTable{keys: newKeyTable(len(pj.buildKeys))}
	ids := make([]int32, len(rows))
	denied := false
	err := pj.keyWindows(rows, pj.buildKeys, pj.buildReads, func(lo int, ke *keyEval) error {
		for i, h := range ke.hashes {
			if res != nil {
				fp := rowFootprint(rows[lo+i]) + ke.keyFootprintAt(i)
				if force {
					res.Force(fp)
				} else if !res.Grow(fp) {
					denied = true
					return errStopScan
				}
			}
			id := t.keys.find(h, ke.cols, i)
			if id < 0 {
				id = t.keys.insert(h, ke.cols, i)
			}
			ids[lo+i] = id
		}
		return nil
	})
	if denied {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	t.rows = rows
	t.idx, t.start = bucketSort(len(ids), int(t.keys.n), func(r int) int32 { return ids[r] })
	return t, true, nil
}

// probe probes probeRows against the table in windows: probe keys and hashes
// are computed columnar, the key table finds each lane's key id without
// materializing probe-side tuples, and the id's rows go to the stage as
// pairs, in build order.
func (pj *partJoin) probe(t *joinTable, probeRows []value.Row) error {
	return pj.keyWindows(probeRows, pj.probeKeys, pj.probeReads, func(lo int, ke *keyEval) error {
		for i, h := range ke.hashes {
			id := t.keys.find(h, ke.cols, i)
			if id < 0 {
				continue
			}
			pr := probeRows[lo+i]
			for _, b := range t.idx[t.start[id]:t.start[id+1]] {
				l, r := t.rows[b], pr
				if !pj.buildLeft {
					l, r = pr, t.rows[b]
				}
				if err := pj.st.pair(l, r); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// colsView is a plan.BatchSource over columns already evaluated for one
// window: a stage's projection.
type colsView struct {
	cols []*value.Col
	n    int
}

func (v *colsView) BatchLen() int { return v.n }

func (v *colsView) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= len(v.cols) {
		return nil, fmt.Errorf("exec: batch column %d out of range (width %d)", idx, len(v.cols))
	}
	return v.cols[idx], nil
}

// own materializes lane i into a row from the arena.
func (v *colsView) own(i int, a *rowArena) value.Row {
	r := a.alloc(len(v.cols))
	for j, c := range v.cols {
		r[j] = c.Value(i)
	}
	return r
}

// grace runs the out-of-core join: both sides are hash-partitioned into F
// spill runs by a salted re-hash of the join keys, then each sub-partition
// pair is joined independently — build sides that still don't fit recurse with
// a fresh salt until maxGraceDepth. Sub-partitions are processed in index
// order and each run preserves input order, so the output is deterministic
// (though bucket-major, unlike the in-memory probe order).
func (pj *partJoin) grace(buildRows, probeRows []value.Row, res *spill.Reservation, depth int) error {
	f := pj.graceFanout(buildRows)
	salt := graceSalt(depth)
	buildRuns, err := pj.spillSide("join-build", pj.buildKeys, pj.buildReads, buildRows, f, salt)
	if err != nil {
		return err
	}
	probeRuns, err := pj.spillSide("join-probe", pj.probeKeys, pj.probeReads, probeRows, f, salt)
	if err != nil {
		return err
	}
	for i := 0; i < f; i++ {
		if err := pj.graceSub(buildRuns[i], probeRuns[i], res, depth); err != nil {
			return err
		}
	}
	return nil
}

// graceSub joins one sub-partition pair.
func (pj *partJoin) graceSub(buildRun, probeRun *spill.Run, res *spill.Reservation, depth int) error {
	defer res.Reset()
	if buildRun.Rows == 0 || probeRun.Rows == 0 {
		return nil // no matches possible
	}
	subBuild, err := readRun(buildRun)
	if err != nil {
		return err
	}
	table, ok, err := pj.buildTable(subBuild, res, depth+1 >= maxGraceDepth)
	if err != nil {
		return err
	}
	if !ok {
		// Still too big: recurse with the next salt so rows re-scatter.
		res.Reset()
		subProbe, err := readRun(probeRun)
		if err != nil {
			return err
		}
		return pj.grace(subBuild, subProbe, res, depth+1)
	}
	// Stream the probe run a window at a time, so the probe side never
	// materializes whole.
	return forRunWindows(probeRun, func(rows []value.Row) error { return pj.probe(table, rows) })
}

// forRunWindows streams run's rows to fn in windows of at most window rows,
// in run order, reusing one buffer.
func forRunWindows(run *spill.Run, fn func(rows []value.Row) error) error {
	rd := run.Reader()
	buf := make([]value.Row, 0, window)
	for {
		row, more, err := rd.Next()
		if err != nil {
			return err
		}
		if more {
			buf = append(buf, row)
		}
		if len(buf) == window || (!more && len(buf) > 0) {
			if err := fn(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if !more {
			return nil
		}
	}
}

// spillSide hash-scatters one side's rows into f runs by
// mix64(keyHash^salt) % f, preserving input order within each run.
func (pj *partJoin) spillSide(label string, keys []plan.Expr, reads []int, rows []value.Row, f int, salt uint64) ([]*spill.Run, error) {
	writers := make([]*spill.Writer, f)
	for i := range writers {
		writers[i] = pj.scr.Writer(fmt.Sprintf("%s-p%d-%d", label, pj.part, i))
	}
	err := pj.keyWindows(rows, keys, reads, func(lo int, ke *keyEval) error {
		for i, h := range ke.hashes {
			if err := writers[mix64(h^salt)%uint64(f)].Append(rows[lo+i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishAll(writers)
}

// finishAll finishes the writers in order, returning their runs.
func finishAll(writers []*spill.Writer) ([]*spill.Run, error) {
	runs := make([]*spill.Run, len(writers))
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// --- aggregation -------------------------------------------------------------

// aggBuilder is one level of a partition's hybrid hash aggregation: add routes
// windows of lanes into the group table and, once the reservation denies a new
// group, new groups' rows into overflow runs; finish aggregates each run one
// level deeper into the same table, where a spilled group, never in it, gets
// an id after every group of this level.
type aggBuilder struct {
	pa      *partAgg
	depth   int
	salt    uint64
	t       *groupTable
	writers []*spill.Writer // overflow runs, nil until the first denial
}

func (pa *partAgg) builder(depth int, t *groupTable) *aggBuilder {
	return &aggBuilder{pa: pa, depth: depth, salt: graceSalt(depth), t: t}
}

// add aggregates the lanes of src named by sel (all n when sel is nil).
// Group keys, their hashes and the aggregates' arguments are evaluated
// columnar; the lanes' group ids are resolved in lane order, then each
// aggregate steps its groups over the lanes in lane order. A lane becomes a
// row (src.own) only for an overflow run.
func (b *aggBuilder) add(src lanes, n int, sel []int32) error {
	pa := b.pa
	if err := pa.ke.eval(pa.a.GroupBy, src, sel); err != nil {
		return err
	}
	for j, args := range pa.args {
		for k, e := range args {
			c, err := plan.EvalVec(e, src, sel)
			if err != nil {
				return err
			}
			pa.argCols[j][k] = c
		}
	}
	if sel == nil {
		pa.all = allSel(pa.all, n)
		sel = pa.all
	}
	pa.ids = slices.Grow(pa.ids[:0], n)
	ids := pa.ids[:n]
	for _, i := range sel {
		id, err := b.group(src, int(i))
		if err != nil {
			return err
		}
		ids[i] = id
	}
	for j := range b.t.aggs {
		if err := b.stepAgg(j, sel, ids); err != nil {
			return err
		}
	}
	return nil
}

// group returns the id of lane i's group, or -1 when the lane went to an
// overflow run. A lane of a group not in the table enters it while the
// reservation grants the group's bytes; once it denies them, that lane and
// every later lane of a group not in the table scatter to the overflow runs
// (all of a group's rows — same hash, same run — so each spilled group is
// complete within its run). At maxGraceDepth the bytes are forced instead: a
// single group's rows always re-scatter to the same run, so depth alone
// cannot split skew.
func (b *aggBuilder) group(src lanes, i int) (int32, error) {
	pa := b.pa
	h := pa.ke.hashes[i]
	if id := b.t.keys.find(h, pa.ke.cols, i); id >= 0 {
		return id, nil
	}
	if b.writers == nil && pa.res != nil {
		fp := pa.ke.keyFootprintAt(i) + stateFootprint(len(pa.a.Aggs))
		if b.depth >= maxGraceDepth {
			pa.res.Force(fp)
		} else if !pa.res.Grow(fp) {
			b.openOverflow()
		}
	}
	if b.writers != nil {
		return -1, b.writers[mix64(h^b.salt)%uint64(len(b.writers))].Append(src.own(i, &pa.arena))
	}
	id := b.t.keys.insert(h, pa.ke.cols, i)
	b.t.addStates()
	return id, nil
}

// stepAgg steps aggregate j's states over the lanes sel, whose groups are
// ids (-1: the lane went to an overflow run), in lane order.
func (b *aggBuilder) stepAgg(j int, sel, ids []int32) error {
	a, cols := &b.t.aggs[j], b.pa.argCols[j]
	var c *value.Col // nil for COUNT(*)
	if len(cols) > 0 {
		c = cols[0]
	}
	floats := (a.op == aggSum || a.op == aggAvg) && !c.Generic && c.Kind == value.KindDouble
	extF := a.op == aggExtreme && !c.Generic && c.Kind == value.KindDouble
	extI := a.op == aggExtreme && !c.Generic && c.Kind == value.KindInt
	for _, i := range sel {
		id := ids[i]
		var err error
		switch {
		case id < 0:
		case a.op == aggCount:
			// A typed column holds no NULL; COUNT(*) has no column.
			if c == nil || !c.Generic || !c.Any[i].IsNull() {
				*a.counts.at(id)++
			}
		case floats:
			err = a.sums.at(id).StepDouble(c.F[i])
		case extF:
			a.extremes.at(id).StepDouble(c.F[i])
		case extI:
			a.extremes.at(id).StepInt(c.I[i])
		case a.op == aggExtreme:
			err = a.extremes.at(id).Step(c.Value(int(i)))
		case a.op != aggBoxed:
			err = a.sums.at(id).Step(c.Value(int(i)))
		case a.fused == builtins.FusedGramSum: // X, the one argument of XᵀX
			x := c.Value(int(i))
			err = (*a.states.at(id)).(*builtins.FusedSumState).StepFused(x, x)
		case a.fused != builtins.FusedNone: // the call's two arguments
			err = (*a.states.at(id)).(*builtins.FusedSumState).StepFused(c.Value(int(i)), cols[1].Value(int(i)))
		default:
			err = (*a.states.at(id)).Step(c.Value(int(i)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// openOverflow starts the level's overflow runs.
func (b *aggBuilder) openOverflow() {
	b.writers = make([]*spill.Writer, aggSpillFanout)
	for i := range b.writers {
		b.writers[i] = b.pa.scr.Writer(fmt.Sprintf("agg-p%d-d%d-%d", b.pa.part, b.depth, i))
	}
}

// finish finishes the overflow runs and aggregates each recursively one level
// deeper, in run order.
func (b *aggBuilder) finish() error {
	if b.writers == nil {
		return nil
	}
	runs, err := finishAll(b.writers)
	if err != nil {
		return err
	}
	for _, run := range runs {
		if err := b.pa.aggregateRun(run, b.depth+1, b.t); err != nil {
			return err
		}
	}
	return nil
}
