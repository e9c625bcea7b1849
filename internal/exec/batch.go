package exec

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// This file holds the windowed operators: the fused pipeline (which also runs
// every filter and projection), hash-join build/probe (including the grace
// spill legs), and partition-local aggregation process windows of rows as
// per-column arrays with selection vectors instead of dispatching the
// expression tree per row.
// Rows are visited in input order whatever the window size, so output rows
// and their order, tuple charges, spill decisions and spill file contents do
// not depend on it. Columnar key hashing must equal hashVals lane for lane:
// the shuffle and the final aggregate merge still hash materialized key tuples
// row at a time, and a group or join key has to land in the same bucket,
// partition and grace file on both sides.

// batchWindow is how many rows an operator gathers into columns at a time.
const batchWindow = 1024

// window is batchWindow; only this package's tests assign it, to put window
// boundaries inside small inputs.
var window = batchWindow

// batchView adapts a window rows[lo:hi] to plan.BatchSource, gathering each
// column on first use and caching it for the rest of the window.
type batchView struct {
	rows   []value.Row
	lo, hi int
	cols   []value.Col
	have   []bool
}

// reset points the view at rows[lo:hi] with the given column count.
func (v *batchView) reset(rows []value.Row, lo, hi, width int) {
	v.rows, v.lo, v.hi = rows, lo, hi
	if cap(v.cols) < width {
		v.cols = make([]value.Col, width)
		v.have = make([]bool, width)
	}
	v.cols = v.cols[:width]
	v.have = v.have[:width]
	for i := range v.have {
		v.have[i] = false
	}
}

// BatchLen implements plan.BatchSource.
func (v *batchView) BatchLen() int { return v.hi - v.lo }

// BatchCol implements plan.BatchSource.
func (v *batchView) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= len(v.cols) {
		return nil, fmt.Errorf("exec: column index %d out of range for row of %d", idx, len(v.cols))
	}
	if !v.have[idx] {
		v.cols[idx].Gather(v.rows, v.lo, v.hi, idx)
		v.have[idx] = true
	}
	return &v.cols[idx], nil
}

// BatchRow implements plan.BatchSource.
func (v *batchView) BatchRow(i int) value.Row { return v.rows[v.lo+i] }

// prefetcher gathers the column set an operator's expressions reference in a
// single pass per window (value.GatherMulti) instead of one lazy pass per
// column. The index set is computed once per operator.
type prefetcher struct {
	idxs []int
	live []int
	cols []*value.Col
}

// newPrefetcher collects the distinct column indexes referenced by the given
// expression lists, ascending.
func newPrefetcher(lists ...[]plan.Expr) *prefetcher {
	seen := map[int]bool{}
	for _, list := range lists {
		for _, e := range list {
			if e == nil {
				continue
			}
			e.Walk(func(x plan.Expr) {
				if c, ok := x.(*plan.Col); ok {
					seen[c.Idx] = true
				}
			})
		}
	}
	p := &prefetcher{}
	for i := range seen {
		p.idxs = append(p.idxs, i)
	}
	sort.Ints(p.idxs)
	p.live = make([]int, 0, len(p.idxs))
	p.cols = make([]*value.Col, 0, len(p.idxs))
	return p
}

// gather single-pass gathers the prefetch set into view's column cache;
// already-gathered or out-of-range indexes are skipped.
func (p *prefetcher) gather(v *batchView) {
	p.live, p.cols = p.live[:0], p.cols[:0]
	for _, idx := range p.idxs {
		if idx >= 0 && idx < len(v.cols) && !v.have[idx] {
			p.live = append(p.live, idx)
			p.cols = append(p.cols, &v.cols[idx])
		}
	}
	if len(p.live) == 0 {
		return
	}
	value.GatherMulti(v.rows, v.lo, v.hi, p.live, p.cols)
	for _, idx := range p.live {
		v.have[idx] = true
	}
}

// viewWidth is the column count of a window (rows of one relation all share
// a width).
func viewWidth(rows []value.Row) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
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

// errStopScan ends a ScanPart early once a pushed-down LIMIT is satisfied.
var errStopScan = errors.New("exec: scan stopped at limit")

// batchPipelinePart runs the fused filter→project chain over partition part
// of t, one table window at a time and each in windows of at most window rows.
// The arena, the output and the selection buffer live across the partition's
// table windows, so rows come out in input order whatever either window size.
// limit < 0 means unbounded; otherwise production stops after limit rows,
// truncating inside the final window via the selection vector so the
// discarded tail is never materialized (or charged by the caller, which
// charges emitted rows only), and the scan stops reading.
func batchPipelinePart(ec *plan.EvalCtx, sp *plan.Pipeline, t Table, part, limit int) ([]value.Row, error) {
	var (
		out   []value.Row
		view  batchView
		sbuf  []int32
		arena rowArena
		cols  []*value.Col
	)
	if sp.Exprs != nil {
		cols = make([]*value.Col, len(sp.Exprs))
	}
	pre := newPrefetcher(sp.Filters, sp.Exprs)
	full := func() bool { return limit >= 0 && len(out) >= limit }
	err := t.ScanPart(part, func(rows []value.Row) error {
		most := len(rows)
		if limit >= 0 && limit-len(out) < most {
			most = limit - len(out)
		}
		arena.left += most * len(sp.Exprs)
		if len(sp.Filters) == 0 {
			out = slices.Grow(out, most)
		}
		width := viewWidth(rows)
		for lo := 0; lo < len(rows) && !full(); lo += window {
			hi := lo + window
			if hi > len(rows) {
				hi = len(rows)
			}
			view.reset(rows, lo, hi, width)
			pre.gather(&view)
			n := hi - lo
			sel := []int32(nil) // nil = every lane live
			for _, pred := range sp.Filters {
				col, err := plan.EvalVec(ec, pred, &view, sel)
				if err != nil {
					return err
				}
				sbuf = filterSel(col, n, sel, sbuf)
				sel = sbuf
				if len(sel) == 0 {
					break
				}
			}
			if sel != nil && len(sel) == 0 {
				continue
			}
			if limit >= 0 {
				remaining := limit - len(out)
				if sel == nil && n > remaining {
					sel = allSel(sbuf, n)[:remaining]
				} else if sel != nil && len(sel) > remaining {
					sel = sel[:remaining]
				}
			}
			if sp.Exprs == nil {
				if sel == nil {
					out = append(out, rows[lo:hi]...)
				} else {
					for _, i := range sel {
						out = append(out, rows[lo+int(i)])
					}
				}
				continue
			}
			for j, e := range sp.Exprs {
				c, err := plan.EvalVec(ec, e, &view, sel)
				if err != nil {
					return err
				}
				cols[j] = c
			}
			emit := func(i int) {
				nr := arena.alloc(len(sp.Exprs))
				for j := range cols {
					nr[j] = cols[j].Value(i)
				}
				out = append(out, nr)
			}
			if sel == nil {
				for i := 0; i < n; i++ {
					emit(i)
				}
			} else {
				for _, i := range sel {
					emit(int(i))
				}
			}
		}
		if full() {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	return out, nil
}

// keyEval is the reusable vectorized key-evaluation state for one window:
// the key columns and the combined key-tuple hashes, matching hashVals of
// evalKeys lane for lane.
type keyEval struct {
	cols    []*value.Col
	hashes  []uint64
	scratch []uint64
}

// eval computes the key columns and combined hashes for every lane of view.
func (k *keyEval) eval(ec *plan.EvalCtx, keys []plan.Expr, view *batchView) error {
	n := view.BatchLen()
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
		c, err := plan.EvalVec(ec, e, view, nil)
		if err != nil {
			return err
		}
		k.cols[i] = c
	}
	for i := range k.hashes {
		k.hashes[i] = value.KeyHashInit
	}
	for _, c := range k.cols {
		c.HashesInto(k.scratch, nil)
		value.CombineKeyHashes(k.hashes, k.scratch, nil)
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

// materializeAt builds the key tuple at lane i as a value slice (used only
// when a row actually enters a hash table, so the allocation is paid once per
// stored entry instead of once per input row).
func (k *keyEval) materializeAt(i int) []value.Value {
	kv := make([]value.Value, len(k.cols))
	for j, c := range k.cols {
		kv[j] = c.Value(i)
	}
	return kv
}

// colKeyEqual compares one key column lane against a materialized key value
// with valsEqual's semantics: numeric pairs compare by their double
// representation, everything else by deep equality.
func colKeyEqual(c *value.Col, i int, w value.Value) bool {
	if !c.Generic {
		switch c.Kind {
		case value.KindInt:
			if !w.IsNumeric() {
				return false
			}
			y, _ := w.AsDouble()
			return float64(c.I[i]) == y
		case value.KindDouble, value.KindLabeledScalar:
			if !w.IsNumeric() {
				return false
			}
			y, _ := w.AsDouble()
			return c.F[i] == y
		case value.KindString:
			return w.Kind == value.KindString && c.S[i] == w.S
		case value.KindBool:
			return w.Kind == value.KindBool && c.B[i] == w.B
		}
	}
	v := c.Value(i)
	if v.IsNumeric() && w.IsNumeric() {
		x, _ := v.AsDouble()
		y, _ := w.AsDouble()
		return x == y
	}
	return v.Equal(w)
}

// keyTupleEqual compares the key columns at lane i against a materialized
// key tuple.
func keyTupleEqual(cols []*value.Col, i int, keys []value.Value) bool {
	for j, c := range cols {
		if !colKeyEqual(c, i, keys[j]) {
			return false
		}
	}
	return true
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
	// original slice keeps the spill files in input order; draining the map
	// would write them in nondeterministic map order) and grace-partition.
	res.Reset()
	return pj.grace(buildRows, probeRows, res, 0)
}

// buildTable builds the hash table over rows: key evaluation and hashing are
// columnar, rows are inserted in input order. With a reservation, a denied
// growth aborts the build and returns ok=false; with force set the bytes are
// charged unconditionally instead (max recursion depth). The reservation
// grows row by row, so a denial lands on the same row at every window size.
func (pj *partJoin) buildTable(rows []value.Row, res *spill.Reservation, force bool) (map[uint64][]joinBucket, bool, error) {
	table := make(map[uint64][]joinBucket, len(rows))
	var (
		view batchView
		ke   keyEval
	)
	width := viewWidth(rows)
	for lo := 0; lo < len(rows); lo += window {
		hi := lo + window
		if hi > len(rows) {
			hi = len(rows)
		}
		view.reset(rows, lo, hi, width)
		if err := ke.eval(pj.ec, pj.buildKeys, &view); err != nil {
			return nil, false, err
		}
		for i := 0; i < hi-lo; i++ {
			r := rows[lo+i]
			if res != nil {
				fp := rowFootprint(r) + ke.keyFootprintAt(i)
				if force {
					res.Force(fp)
				} else if !res.Grow(fp) {
					return nil, false, nil
				}
			}
			h := ke.hashes[i]
			table[h] = append(table[h], joinBucket{keys: ke.materializeAt(i), row: r})
		}
	}
	return table, true, nil
}

// probe probes probeRows against the table in windows: probe keys and hashes
// are computed columnar, bucket scans compare column lanes against the stored
// key tuples without materializing probe-side tuples, and each window's
// matches emit through the vectorized residual/projection path in match
// order, one charge tick per emitted row.
func (pj *partJoin) probe(table map[uint64][]joinBucket, probeRows []value.Row) error {
	var (
		view   batchView
		ke     keyEval
		mb, mp []value.Row
	)
	if pj.em == nil {
		pj.em = newBatchEmitter(pj)
	}
	width := viewWidth(probeRows)
	for lo := 0; lo < len(probeRows); lo += window {
		hi := lo + window
		if hi > len(probeRows) {
			hi = len(probeRows)
		}
		view.reset(probeRows, lo, hi, width)
		if err := ke.eval(pj.ec, pj.probeKeys, &view); err != nil {
			return err
		}
		mb, mp = mb[:0], mp[:0]
		for i := 0; i < hi-lo; i++ {
			bucket := table[ke.hashes[i]]
			if len(bucket) == 0 {
				continue
			}
			pr := probeRows[lo+i]
			for _, b := range bucket {
				if !keyTupleEqual(ke.cols, i, b.keys) {
					continue
				}
				mb = append(mb, b.row)
				mp = append(mp, pr)
			}
		}
		if err := pj.em.flush(mb, mp); err != nil {
			return err
		}
	}
	return nil
}

// pairSource is a plan.BatchSource over the matched pairs of one probe
// window: column idx < split gathers from the left-side rows, the rest from
// the right side, so the vectorized residual and projection never pay for
// materializing concatenated rows. The scalar fallback (BatchRow) builds the
// concat rows lazily, costing what the eager copy cost only when a generic
// expression actually needs whole rows.
type pairSource struct {
	left, right []value.Row
	split, w    int
	cols        []value.Col
	have        []bool
	buf         []value.Value // flat backing for lazily-built concat rows
	concat      []value.Row
}

func (ps *pairSource) reset(left, right []value.Row, split, w int) {
	ps.left, ps.right = left, right
	ps.split, ps.w = split, w
	if cap(ps.cols) < w {
		ps.cols = make([]value.Col, w)
		ps.have = make([]bool, w)
	}
	ps.cols = ps.cols[:w]
	ps.have = ps.have[:w]
	for i := range ps.have {
		ps.have[i] = false
	}
	ps.concat = ps.concat[:0]
}

func (ps *pairSource) BatchLen() int { return len(ps.left) }

func (ps *pairSource) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= ps.w {
		return nil, fmt.Errorf("exec: batch column %d out of range (width %d)", idx, ps.w)
	}
	c := &ps.cols[idx]
	if !ps.have[idx] {
		if idx < ps.split {
			c.Gather(ps.left, 0, len(ps.left), idx)
		} else {
			c.Gather(ps.right, 0, len(ps.right), idx-ps.split)
		}
		ps.have[idx] = true
	}
	return c, nil
}

func (ps *pairSource) BatchRow(i int) value.Row {
	if len(ps.concat) == 0 {
		n := len(ps.left)
		if cap(ps.buf) < n*ps.w {
			ps.buf = make([]value.Value, n*ps.w)
		}
		for k := 0; k < n; k++ {
			nr := value.Row(ps.buf[k*ps.w : k*ps.w : (k+1)*ps.w])
			nr = append(nr, ps.left[k]...)
			nr = append(nr, ps.right[k]...)
			ps.concat = append(ps.concat, nr)
		}
	}
	return ps.concat[i]
}

// batchEmitter is the match-emission tail of the probe: residual predicates
// and the fused projection evaluate columnar over the window's matched
// build/probe pairs, and survivors are emitted and charged in match order.
type batchEmitter struct {
	pj    *partJoin
	pair  pairSource
	view  batchView
	sbuf  []int32
	cols  []*value.Col
	arena rowArena // output rows
}

func newBatchEmitter(pj *partJoin) *batchEmitter {
	em := &batchEmitter{pj: pj}
	if pj.proj != nil {
		em.cols = make([]*value.Col, len(pj.proj.exprs))
	}
	return em
}

// flush emits the window's matches; bRows and pRows are parallel pair sides.
func (em *batchEmitter) flush(bRows, pRows []value.Row) error {
	n := len(bRows)
	if n == 0 {
		return nil
	}
	pj := em.pj
	left, right := bRows, pRows
	if !pj.buildLeft {
		left, right = pRows, bRows
	}
	w := len(left[0]) + len(right[0])
	if pj.proj == nil {
		return em.flushConcat(left, right, w)
	}
	em.pair.reset(left, right, len(left[0]), w)
	var sel []int32
	for _, res := range pj.j.Residual {
		col, err := plan.EvalVec(pj.ec, res, &em.pair, sel)
		if err != nil {
			return err
		}
		em.sbuf = filterSel(col, n, sel, em.sbuf)
		sel = em.sbuf
		if len(sel) == 0 {
			return nil
		}
	}
	for j, e := range pj.proj.exprs {
		c, err := plan.EvalVec(pj.ec, e, &em.pair, sel)
		if err != nil {
			return err
		}
		em.cols[j] = c
	}
	emit := func(i int) error {
		nr := em.arena.alloc(len(em.cols))
		for j := range em.cols {
			nr[j] = em.cols[j].Value(i)
		}
		pj.rows = append(pj.rows, nr)
		return pj.charge.tick()
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := emit(int(i)); err != nil {
			return err
		}
	}
	return nil
}

// flushConcat is the no-projection leg: the concatenated rows are the output
// rows themselves, so they must materialize (from the arena); the residual
// then runs vectorized over a view of them.
func (em *batchEmitter) flushConcat(left, right []value.Row, w int) error {
	pj := em.pj
	n := len(left)
	concat := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		nr := em.arena.alloc(w)[:0]
		nr = append(nr, left[i]...)
		nr = append(nr, right[i]...)
		concat = append(concat, nr)
	}
	em.view.reset(concat, 0, n, w)
	var sel []int32
	for _, res := range pj.j.Residual {
		col, err := plan.EvalVec(pj.ec, res, &em.view, sel)
		if err != nil {
			return err
		}
		em.sbuf = filterSel(col, n, sel, em.sbuf)
		sel = em.sbuf
		if len(sel) == 0 {
			return nil
		}
	}
	emit := func(i int) error {
		pj.rows = append(pj.rows, concat[i])
		return pj.charge.tick()
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := emit(int(i)); err != nil {
			return err
		}
	}
	return nil
}

// grace runs the out-of-core join: both sides are hash-partitioned into F
// spill files by a salted re-hash of the join keys, then each sub-partition
// pair is joined independently — build sides that still don't fit recurse with
// a fresh salt until maxGraceDepth. Sub-partitions are processed in index
// order and each file preserves input order, so the output is deterministic
// (though bucket-major, unlike the in-memory probe order).
func (pj *partJoin) grace(buildRows, probeRows []value.Row, res *spill.Reservation, depth int) error {
	f := pj.graceFanout(buildRows)
	salt := graceSalt(depth)
	buildRuns, err := pj.spillSide("join-build", pj.buildKeys, buildRows, f, salt)
	if err != nil {
		return err
	}
	probeRuns, err := pj.spillSide("join-probe", pj.probeKeys, probeRows, f, salt)
	if err != nil {
		removeRunSlice(buildRuns)
		return err
	}
	for i := 0; i < f; i++ {
		err := pj.graceSub(buildRuns[i], probeRuns[i], res, depth)
		buildRuns[i], probeRuns[i] = nil, nil
		if err != nil {
			removeRunSlice(buildRuns)
			removeRunSlice(probeRuns)
			return err
		}
	}
	return nil
}

// graceSub joins one sub-partition pair and removes its run files.
func (pj *partJoin) graceSub(buildRun, probeRun *spill.Run, res *spill.Reservation, depth int) error {
	defer res.Reset()
	if buildRun.Rows == 0 || probeRun.Rows == 0 {
		// No matches possible; just reclaim the disk.
		if err := buildRun.Remove(); err != nil {
			return err
		}
		return probeRun.Remove()
	}
	subBuild, err := readRun(buildRun)
	if err != nil {
		return err
	}
	if err := buildRun.Remove(); err != nil {
		return err
	}
	table, ok, err := pj.buildTable(subBuild, res, depth+1 >= maxGraceDepth)
	if err != nil {
		_ = probeRun.Remove() // the build error is the actionable one
		return err
	}
	if !ok {
		// Still too big: recurse with the next salt so rows re-scatter.
		res.Reset()
		subProbe, err := readRun(probeRun)
		if err != nil {
			return err
		}
		if err := probeRun.Remove(); err != nil {
			return err
		}
		return pj.grace(subBuild, subProbe, res, depth+1)
	}
	// Stream the probe run a window at a time, so the probe side never
	// materializes whole.
	rd, err := probeRun.Reader()
	if err != nil {
		return err
	}
	buf := make([]value.Row, 0, window)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := pj.probe(table, buf)
		buf = buf[:0]
		return err
	}
	for {
		row, more, err := rd.Next()
		if err != nil {
			_ = rd.Close()
			return err
		}
		if !more {
			break
		}
		buf = append(buf, row)
		if len(buf) == window {
			if err := flush(); err != nil {
				_ = rd.Close()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		_ = rd.Close()
		return err
	}
	if err := rd.Close(); err != nil {
		return err
	}
	return probeRun.Remove()
}

// spillSide hash-scatters one side's rows into f run files by
// mix64(keyHash^salt) % f, preserving input order within each file.
func (pj *partJoin) spillSide(label string, keys []plan.Expr, rows []value.Row, f int, salt uint64) ([]*spill.Run, error) {
	writers := make([]*spill.Writer, f)
	abortAll := func() {
		for _, w := range writers {
			if w != nil {
				_ = w.Abort() // the original error is the actionable one
			}
		}
	}
	for i := range writers {
		w, err := pj.ctx.Spill.NewWriterAt(fmt.Sprintf("%s-p%d-%d", label, pj.part, i), pj.attempt)
		if err != nil {
			abortAll()
			return nil, err
		}
		writers[i] = w
	}
	var (
		view batchView
		ke   keyEval
	)
	width := viewWidth(rows)
	for lo := 0; lo < len(rows); lo += window {
		hi := lo + window
		if hi > len(rows) {
			hi = len(rows)
		}
		view.reset(rows, lo, hi, width)
		if err := ke.eval(pj.ec, keys, &view); err != nil {
			abortAll()
			return nil, err
		}
		for i := 0; i < hi-lo; i++ {
			idx := int(mix64(ke.hashes[i]^salt) % uint64(f))
			if err := writers[idx].Append(rows[lo+i]); err != nil {
				abortAll()
				return nil, err
			}
		}
	}
	runs := make([]*spill.Run, f)
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			writers[i] = nil
			abortAll()
			removeRunSlice(runs)
			return nil, err
		}
		writers[i] = nil
		runs[i] = run
	}
	return runs, nil
}

// --- aggregation -------------------------------------------------------------

// stepCol feeds lane i of column c into state st, using the unboxed stepper
// fast paths when both the column storage and the state support them.
// LabeledScalar lanes fall back to Step so labels reach states that keep them.
func stepCol(st builtins.AggState, c *value.Col, i int) error {
	if !c.Generic {
		switch c.Kind {
		case value.KindDouble:
			if ds, ok := st.(builtins.DoubleStepper); ok {
				return ds.StepDouble(c.F[i])
			}
		case value.KindInt:
			if is, ok := st.(builtins.IntStepper); ok {
				return is.StepInt(c.I[i])
			}
		}
	}
	return st.Step(c.Value(i))
}

// build aggregates the iterator's rows into a group map, spilling new-group
// rows once res denies the table more entries. Rows are buffered into
// windows, group keys and hashes (and non-fused aggregate arguments) are
// evaluated columnar, then each row is routed in input order through the
// group lookup; key tuples materialize only when a new group enters the
// table. At maxGraceDepth the bytes are forced instead (a single group's rows
// always re-scatter to the same file, so depth alone cannot split skew).
func (pa *partAgg) build(next rowIter, res *spill.Reservation, depth int) (map[uint64][]*aggGroup, error) {
	groups := map[uint64][]*aggGroup{}
	force := depth >= maxGraceDepth
	salt := graceSalt(depth)
	var writers []*spill.Writer
	abortAll := func() {
		for _, w := range writers {
			if w != nil {
				_ = w.Abort() // the original error is the actionable one
			}
		}
	}

	fuse := !pa.ctx.DisableAggFusion
	// Aggregate argument columns vectorize only for plain (non-fused,
	// non-COUNT(*)) calls; fused states step from the original row.
	vecArg := make([]bool, len(pa.a.Aggs))
	for i, a := range pa.a.Aggs {
		vecArg[i] = a.Input != nil && !(fuse && fusedOf(a) != fusedNone)
	}
	argCols := make([]*value.Col, len(pa.a.Aggs))
	var vecInputs []plan.Expr
	for i, a := range pa.a.Aggs {
		if vecArg[i] {
			vecInputs = append(vecInputs, a.Input)
		}
	}
	pre := newPrefetcher(pa.a.GroupBy, vecInputs)

	win := make([]value.Row, 0, window)
	var (
		view batchView
		ke   keyEval
	)
	done := false
	for !done {
		win = win[:0]
		for len(win) < window {
			r, ok, err := next()
			if err != nil {
				abortAll()
				return nil, err
			}
			if !ok {
				done = true
				break
			}
			win = append(win, r)
		}
		if len(win) == 0 {
			break
		}
		view.reset(win, 0, len(win), viewWidth(win))
		pre.gather(&view)
		if err := ke.eval(pa.ec, pa.a.GroupBy, &view); err != nil {
			abortAll()
			return nil, err
		}
		for j, a := range pa.a.Aggs {
			if !vecArg[j] {
				continue
			}
			c, err := plan.EvalVec(pa.ec, a.Input, &view, nil)
			if err != nil {
				abortAll()
				return nil, err
			}
			argCols[j] = c
		}
		for i, r := range win {
			h := ke.hashes[i]
			var g *aggGroup
			for _, cand := range groups[h] {
				if keyTupleEqual(ke.cols, i, cand.keys) {
					g = cand
					break
				}
			}
			if g == nil {
				if writers != nil {
					// Overflow mode: this group is not in the table, so its rows
					// scatter out (all of them — same hash, same file — so each
					// spilled group is complete within its file).
					idx := int(mix64(h^salt) % uint64(len(writers)))
					if err := writers[idx].Append(r); err != nil {
						abortAll()
						return nil, err
					}
					continue
				}
				fp := ke.keyFootprintAt(i) + stateFootprint(len(pa.a.Aggs))
				if res != nil && !force && !res.Grow(fp) {
					// Pressure: open the overflow files; this row is the first
					// one out.
					writers = make([]*spill.Writer, aggSpillFanout)
					for wi := range writers {
						w, err := pa.ctx.Spill.NewWriterAt(fmt.Sprintf("agg-p%d-d%d-%d", pa.part, depth, wi), pa.attempt)
						if err != nil {
							abortAll()
							return nil, err
						}
						writers[wi] = w
					}
					idx := int(mix64(h^salt) % uint64(len(writers)))
					if err := writers[idx].Append(r); err != nil {
						abortAll()
						return nil, err
					}
					continue
				}
				if res != nil && force {
					res.Force(fp)
				}
				g = &aggGroup{keys: ke.materializeAt(i), states: newStates(pa.a.Aggs, fuse)}
				groups[h] = append(groups[h], g)
			}
			for j := range g.states {
				var err error
				switch {
				case vecArg[j]:
					err = stepCol(g.states[j], argCols[j], i)
				case pa.a.Aggs[j].Input == nil:
					// COUNT(*): any non-null marker.
					if is, ok := g.states[j].(builtins.IntStepper); ok {
						err = is.StepInt(1)
					} else {
						err = g.states[j].Step(value.Int(1))
					}
				default:
					err = g.states[j].(*fusedSumState).stepFused(pa.ec, r)
				}
				if err != nil {
					abortAll()
					return nil, err
				}
			}
		}
	}
	if writers == nil {
		return groups, nil
	}
	runs := make([]*spill.Run, len(writers))
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			for j := i + 1; j < len(writers); j++ {
				_ = writers[j].Abort()
			}
			removeRunSlice(runs)
			return nil, err
		}
		runs[i] = run
	}
	for i, run := range runs {
		child, err := pa.buildFromRun(run, res, depth+1)
		runs[i] = nil
		if err != nil {
			removeRunSlice(runs)
			return nil, err
		}
		if err := mergeGroupMaps(groups, child); err != nil {
			removeRunSlice(runs)
			return nil, err
		}
	}
	return groups, nil
}
