package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// pipelinePlan builds Project(Filter(Scan(t))) keeping rows with a < keep and
// projecting a*10.
func pipelinePlan(s *plan.Scan, keep int64) *plan.Project {
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(keep), T: types.TInt}, T: types.TBool}
	return &plan.Project{
		Input: &plan.Filter{Input: s, Pred: pred},
		Exprs: []plan.Expr{&plan.Binary{Op: "*", Kind: plan.BinArith, L: col(0, types.TInt), R: &plan.Const{V: value.Int(10), T: types.TInt}, T: types.TInt}},
		Out:   plan.Schema{{Name: "x", T: types.TInt}},
	}
}

// TestPipelineMatchesUnfused pins a filter→project chain over a scan to the
// rows and placement an operator-at-a-time run produces: each partition keeps
// its own rows, in stored order, and the chain runs as one "pipeline" stage.
func TestPipelineMatchesUnfused(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 40)
	s := scanNode("t", 40,
		catalog.Column{Name: "a", Type: types.TInt},
		catalog.Column{Name: "b", Type: types.TInt})

	rel, err := Run(ctx, pipelinePlan(s, 17))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Timings.Get("pipeline") == 0 {
		t.Fatal("the chain did not run as one pipeline stage")
	}
	// intTable spreads a = 0..39 round-robin over the four partitions.
	p := ctx.Cluster.Partitions()
	if len(rel.Parts) != p {
		t.Fatalf("%d parts, want %d", len(rel.Parts), p)
	}
	for part, rows := range rel.Parts {
		var want []int64
		for a := part; a < 17; a += p {
			want = append(want, int64(a)*10)
		}
		if len(rows) != len(want) {
			t.Fatalf("part %d: %d rows, want %d", part, len(rows), len(want))
		}
		for i, r := range rows {
			if len(r) != 1 || r[0].I != want[i] {
				t.Fatalf("part %d row %d: %v, want [%d]", part, i, r, want[i])
			}
		}
	}
	if rel.HashKeys != nil || rel.Single {
		t.Fatalf("placement: keys %v single %v, want neither", rel.HashKeys, rel.Single)
	}
}

func TestPipelineFilterOnlyKeepsRows(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 30)
	s := scanNode("t", 30,
		catalog.Column{Name: "a", Type: types.TInt},
		catalog.Column{Name: "b", Type: types.TInt})
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(7), T: types.TInt}, T: types.TBool}
	rel, err := Run(ctx, &plan.Filter{Input: s, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 7 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if ctx.Timings.Get("pipeline") == 0 {
		t.Fatal("filter-over-scan should run as a fused pipeline")
	}
}

// TestOperatorCharges pins what each operator charges: a filter the rows it
// keeps, a sort the rows it gathers, a LIMIT the rows that survive it, and a
// filter→project chain only its final output.
func TestOperatorCharges(t *testing.T) {
	scan := func() (*Context, *plan.Scan) {
		tables := memSource{}
		ctx := testCtx(tables)
		tables["t"] = intTable(ctx, 20)
		return ctx, scanNode("t", 20,
			catalog.Column{Name: "a", Type: types.TInt},
			catalog.Column{Name: "b", Type: types.TInt})
	}
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(8), T: types.TInt}, T: types.TBool}

	t.Run("filter", func(t *testing.T) {
		ctx, s := scan()
		if _, err := Run(ctx, &plan.Filter{Input: s, Pred: pred}); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cluster.Stats().Snapshot().TuplesProduced; got != 8 {
			t.Fatalf("filter charged %d tuples, want 8 (its kept rows)", got)
		}
	})
	t.Run("sort", func(t *testing.T) {
		ctx, s := scan()
		if _, err := Run(ctx, &plan.Sort{Input: s, Keys: []plan.OrderKey{{Col: 0}}}); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cluster.Stats().Snapshot().TuplesProduced; got != 20 {
			t.Fatalf("sort charged %d tuples, want 20 (its gathered rows)", got)
		}
	})
	t.Run("limit", func(t *testing.T) {
		ctx, s := scan()
		if _, err := Run(ctx, &plan.Limit{Input: s, N: 3}); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cluster.Stats().Snapshot().TuplesProduced; got != 3 {
			t.Fatalf("limit charged %d tuples, want 3 (its surviving rows)", got)
		}
	})
	t.Run("pipeline-charges-output-only", func(t *testing.T) {
		ctx, s := scan()
		if _, err := Run(ctx, pipelinePlan(s, 8)); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cluster.Stats().Snapshot().TuplesProduced; got != 8 {
			t.Fatalf("fused pipeline charged %d tuples, want 8 (final output only)", got)
		}
	})
}

func TestPipelineHashKeyRules(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 20)
	meta := catalog.NewTableMeta("t", catalog.Schema{Cols: []catalog.Column{
		{Name: "a", Type: types.TInt},
		{Name: "b", Type: types.TInt},
	}}, 20)
	meta.PartitionCol = "a"
	s := &plan.Scan{Table: meta, Out: plan.Schema{{Name: "a", T: types.TInt}, {Name: "b", T: types.TInt}}}
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(10), T: types.TInt}, T: types.TBool}

	// Filter-only: rows only disappear, so the scan's advertised placement
	// survives the fused pipeline.
	rel, err := Run(ctx, &plan.Filter{Input: s, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if rel.HashKeys == nil {
		t.Fatal("filter-only pipeline dropped the scan's hash keys")
	}
	// Projecting: keys would need rewriting through the projection, so the
	// pipeline conservatively drops them (same rule as runProject).
	rel2, err := Run(ctx, pipelinePlan(s, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.HashKeys != nil {
		t.Fatal("projecting pipeline must not advertise hash keys")
	}
}

// TestPipelineAllocs is the allocation regression gate: allocations per query
// come with windows and partitions, not rows (under one per ten rows here):
// projected rows are carved from the arena, not allocated one by one.
func TestPipelineAllocs(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	const n = 4000
	tables["t"] = intTable(ctx, n)
	s := scanNode("t", n,
		catalog.Column{Name: "a", Type: types.TInt},
		catalog.Column{Name: "b", Type: types.TInt})
	// Keep every row so the projection allocation dominates.
	p := pipelinePlan(s, n)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(ctx, p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per query: %.0f", allocs)
	if allocs > n/10 {
		t.Fatalf("pipeline allocates %.0f per run over %d rows, want <= %d", allocs, n, n/10)
	}
}

// TestJoinAggregateAllocs is the allocation gate for a join whose only
// consumer is a grouped aggregate, in the tuple-layout Gram's shape: a table of
// (row_index, col_index, value) rows, d per row_index, joined on row_index and
// grouped into d² cells. The gate is the marginal cost of a matched pair: the
// self-join against the same join with every probe row present three times,
// whose extra bytes over its extra pairs leave out the build table, the d²
// groups and the per-partition buffers, which do not grow with the pairs.
// Placed tables (by row_index) move nothing, so pair windows are reused and
// their projected columns go straight into the aggregate, and what is left per
// pair is the window's product column (8 bytes a lane). When the join
// materialized its pairs before aggregating, this measured 508 bytes per extra
// pair, and the self-join allocated 37.5 MB a run (748 bytes a pair).
// Unplaced tables (round-robin, no partition column) shuffle both sides; what
// they allocate beyond the placed leg, over the extra input rows they
// shuffle, is the exchange's marginal cost per row: the codec round trip of a
// moved row and its bucket slot. When each input was materialized and then
// shuffled row by row, boxing every key, it measured 401 bytes a row; with
// the keys evaluated columnar in the input's stage it measures about 350.
func TestJoinAggregateAllocs(t *testing.T) {
	const n, d = 87, 24 // 50 112 pairs in the self-join
	tables := memSource{}
	ctx := testCtx(tables)
	p := ctx.Cluster.Partitions()
	cols := []catalog.Column{{Name: "row_index", Type: types.TInt}, {Name: "col_index", Type: types.TInt}, {Name: "value", Type: types.TDouble}}
	out := plan.Schema{{Name: "row_index", T: types.TInt}, {Name: "col_index", T: types.TInt}, {Name: "value", T: types.TDouble}}
	scan := func(name string, copies int, placed bool) *plan.Scan {
		parts := make([][]value.Row, p)
		for i := 0; i < n; i++ {
			row := value.Row{value.Int(int64(i))}
			dest := int(value.HashRowKey(row, []int{0}) % uint64(p))
			for c := 0; c < copies; c++ {
				for j := 0; j < d; j++ {
					if !placed {
						dest = (i*d + j) % p
					}
					parts[dest] = append(parts[dest], value.Row{row[0], value.Int(int64(j)), value.Double(float64(i%7) + float64(j)/3)})
				}
			}
		}
		tables[name] = parts
		meta := catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, int64(copies*n*d))
		if placed {
			meta.PartitionCol = "row_index"
		}
		return &plan.Scan{Table: meta, Out: out}
	}
	gram := func(x1, x2 *plan.Scan) *plan.Agg {
		key := &plan.Col{Idx: 0, Name: "row_index", T: types.TInt}
		join := &plan.Join{L: x1, R: x2, LKeys: []plan.Expr{key}, RKeys: []plan.Expr{key}, Out: append(append(plan.Schema{}, out...), out...)}
		product := &plan.Binary{Op: "*", Kind: plan.BinArith, L: col(2, types.TDouble), R: col(5, types.TDouble), T: types.TDouble}
		proj := &plan.Project{Input: join, Exprs: []plan.Expr{col(1, types.TInt), col(4, types.TInt), product},
			Out: plan.Schema{{Name: "i", T: types.TInt}, {Name: "j", T: types.TInt}, {Name: "p", T: types.TDouble}}}
		sum, _ := builtins.LookupAgg("sum")
		return &plan.Agg{Input: proj, GroupBy: []plan.Expr{col(0, types.TInt), col(1, types.TInt)},
			Aggs: []plan.AggCall{{Spec: sum, Input: col(2, types.TDouble), T: types.TDouble}},
			Out:  plan.Schema{{Name: "i", T: types.TInt}, {Name: "j", T: types.TInt}, {Name: "s", T: types.TDouble}}}
	}
	// allocated returns the bytes one run of q allocates, over several runs
	// after a warm-up.
	allocated := func(q *plan.Agg) float64 {
		run := func() {
			rel, err := Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if rel.NumRows() != d*d {
				t.Fatalf("%d cells, want %d", rel.NumRows(), d*d)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	x1 := scan("xt", 1, true)
	self := allocated(gram(x1, x1))
	tripled := allocated(gram(x1, scan("xt3", 3, true)))
	const pairs = n * d * d
	perPair := (tripled - self) / (2 * pairs)
	t.Logf("placed: %.0f bytes per run over %d pairs; %.1f bytes per extra matched pair", self, pairs, perPair)
	if perPair > 16 {
		t.Fatalf("join → aggregate allocates %.1f bytes per matched pair, want <= 16", perPair)
	}

	u1 := scan("ut", 1, false)
	uself := allocated(gram(u1, u1))
	utripled := allocated(gram(u1, scan("ut3", 3, false)))
	perRow := ((utripled - uself) - (tripled - self)) / (2 * n * d)
	t.Logf("unplaced: %.0f bytes per run; %.1f bytes per extra shuffled input row", uself, perRow)
	if perRow > 380 {
		t.Fatalf("the join's exchange allocates %.1f bytes per shuffled input row, want <= 380", perRow)
	}
}

// TestFilterAggregateAllocs is the allocation gate for an aggregate over a
// filtered scan. The filter and the local aggregate are one stage, so each
// scanned window's surviving lanes go straight into the group table and a
// run's allocation does not grow with the rows it scans. The gate is the
// marginal cost of a scanned row: the same query over a table three times the
// size, whose extra bytes over its extra rows leave out the per-partition
// buffers and the groups. It measures about 1 byte a row (the predicate's
// result column); when the filtered relation materialized before the
// aggregate read it, it measured 124.
func TestFilterAggregateAllocs(t *testing.T) {
	const n = 20000
	tables := memSource{}
	ctx := testCtx(tables)
	// (g, x, y) rows filtered by x >= y: a comparison of two DOUBLE columns
	// evaluates over the gathered columns without a per-lane allocation of
	// its own, so what is measured is the stage.
	query := func(name string, rows int) *plan.Agg {
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = value.Row{value.Int(int64(i % 5)), value.Double(float64(i % 97)), value.Double(1)}
		}
		tables[name] = ctx.Cluster.ScatterRoundRobin(data)
		s := scanNode(name, int64(rows),
			catalog.Column{Name: "g", Type: types.TInt},
			catalog.Column{Name: "x", Type: types.TDouble},
			catalog.Column{Name: "y", Type: types.TDouble})
		keep := &plan.Binary{Op: ">=", Kind: plan.BinCompare, L: col(1, types.TDouble), R: col(2, types.TDouble), T: types.TBool}
		sum, _ := builtins.LookupAgg("sum")
		return &plan.Agg{Input: &plan.Filter{Input: s, Pred: keep}, GroupBy: []plan.Expr{col(0, types.TInt)},
			Aggs: []plan.AggCall{{Spec: sum, Input: col(1, types.TDouble), T: types.TDouble}},
			Out:  plan.Schema{{Name: "g", T: types.TInt}, {Name: "s", T: types.TDouble}}}
	}
	allocated := func(q *plan.Agg) float64 {
		run := func() {
			rel, err := Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if rel.NumRows() != 5 {
				t.Fatalf("%d groups, want 5", rel.NumRows())
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	single := allocated(query("t1", n))
	tripled := allocated(query("t3", 3*n))
	perRow := (tripled - single) / (2 * n)
	t.Logf("%.0f bytes per run over %d rows; %.2f bytes per extra scanned row", single, n, perRow)
	if perRow > 4 {
		t.Fatalf("filter → aggregate allocates %.2f bytes per scanned row, want <= 4", perRow)
	}
}

// TestShortPartitionArenaFitsItsRows: projecting a 20-row partition to two
// columns takes an arena chunk of at most twice the 40 slots it returns, not
// a 4096-slot one.
func TestShortPartitionArenaFitsItsRows(t *testing.T) {
	rows := make([]value.Row, 20)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 3))}
	}
	st := &stage{exprs: []plan.Expr{col(1, types.TInt), col(0, types.TInt)}, limit: -1}
	ctx := testCtx(memSource{})
	slotBytes := uint64(unsafe.Sizeof(value.Value{}))
	// Everything else the operator allocates for 20 rows (the output slice,
	// two gathered columns, the selection and the read set) fits in 4 KiB.
	limit := 2*40*slotBytes + 4<<10
	// TotalAlloc counts every goroutine's allocations, so take the least of
	// a few attempts: a stray allocation elsewhere only ever adds.
	least := ^uint64(0)
	for attempt := 0; attempt < 5; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ps := newPartStage(ctx, st, 0, nil)
		err := ps.rows(rows)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		out := ps.out
		if len(out) != 20 || len(out[7]) != 2 || out[7][0].I != 1 || out[7][1].I != 7 {
			t.Fatalf("wrong rows: %v", out)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got < least {
			least = got
		}
	}
	if least > limit {
		t.Fatalf("allocated %d bytes for 40 result slots of %d bytes, want <= %d", least, slotBytes, limit)
	}
}
