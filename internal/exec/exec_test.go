package exec

import (
	"fmt"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// memSource is an in-memory TableSource for tests.
type memSource map[string][][]value.Row

func (m memSource) OpenTable(name string) (Table, error) {
	parts, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return MemTable(parts), nil
}

func testCtx(tables memSource) *Context {
	cl := cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true})
	return &Context{Cluster: cl, Tables: tables, Timings: NewTimings()}
}

func scanNode(name string, rows int64, cols ...catalog.Column) *plan.Scan {
	meta := catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, rows)
	out := make(plan.Schema, len(cols))
	for i, c := range cols {
		out[i] = plan.Field{Name: c.Name, T: c.Type}
	}
	return &plan.Scan{Table: meta, Out: out}
}

func intTable(ctx *Context, n int) [][]value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 5))}
	}
	return ctx.Cluster.ScatterRoundRobin(rows)
}

func col(idx int, t types.T) *plan.Col {
	return &plan.Col{Idx: idx, Name: fmt.Sprintf("c%d", idx), T: t}
}

func TestScanRepartitionsMismatchedLayout(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	// Store with the wrong number of partitions.
	tables["t"] = [][]value.Row{{{value.Int(1), value.Int(0)}}, {{value.Int(2), value.Int(0)}}}
	s := scanNode("t", 2,
		catalog.Column{Name: "a", Type: types.TInt},
		catalog.Column{Name: "b", Type: types.TInt})
	rel, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Parts) != ctx.Cluster.Partitions() || rel.NumRows() != 2 {
		t.Fatalf("parts %d rows %d", len(rel.Parts), rel.NumRows())
	}
}

func TestFilterAndProject(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 20)
	s := scanNode("t", 20,
		catalog.Column{Name: "a", Type: types.TInt},
		catalog.Column{Name: "b", Type: types.TInt})
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(5), T: types.TInt}, T: types.TBool}
	proj := &plan.Project{
		Input: &plan.Filter{Input: s, Pred: pred},
		Exprs: []plan.Expr{&plan.Binary{Op: "*", Kind: plan.BinArith, L: col(0, types.TInt), R: &plan.Const{V: value.Int(10), T: types.TInt}, T: types.TInt}},
		Out:   plan.Schema{{Name: "x", T: types.TInt}},
	}
	rel, err := Run(ctx, proj)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 5 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	sum := int64(0)
	for _, r := range rel.Rows() {
		sum += r[0].I
	}
	if sum != (0+1+2+3+4)*10 {
		t.Fatalf("sum %d", sum)
	}
}

func joinNode(l, r plan.Node, lkey, rkey int) *plan.Join {
	out := make(plan.Schema, 0)
	out = append(out, l.Schema()...)
	out = append(out, r.Schema()...)
	return &plan.Join{
		L: l, R: r,
		LKeys: []plan.Expr{col(lkey, types.TInt)},
		RKeys: []plan.Expr{col(rkey, types.TInt)},
		Out:   out,
	}
}

func TestHashJoin(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 10)
	tables["r"] = intTable(ctx, 10)
	l := scanNode("l", 10, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 10, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	rel, err := Run(ctx, joinNode(l, r, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 10 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	for _, row := range rel.Rows() {
		if row[0].I != row[2].I {
			t.Fatalf("join key mismatch %v", row)
		}
		if len(row) != 4 {
			t.Fatalf("row width %d", len(row))
		}
	}
	if rel.HashKeys == nil {
		t.Fatal("join output should advertise hash partitioning")
	}
}

func TestJoinShuffleSkipWhenPartitioned(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 40)
	tables["r"] = intTable(ctx, 40)
	l := scanNode("l", 40, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 40, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	// First join shuffles both sides; a second join on the same key over
	// the first join's output must reuse the placement for that side.
	j1 := joinNode(l, r, 0, 0)
	rel1, err := Run(ctx, j1)
	if err != nil {
		t.Fatal(err)
	}
	rounds1 := ctx.Cluster.Stats().Snapshot().ShuffleRounds

	// Joining j1's output (hash-partitioned by column 0) with a fresh scan:
	// only the fresh side shuffles.
	_ = rel1
	tables["m"] = intTable(ctx, 40)
	m := scanNode("m", 40, catalog.Column{Name: "e", Type: types.TInt}, catalog.Column{Name: "f", Type: types.TInt})
	j2 := joinNode(j1, m, 0, 0)
	if _, err := Run(ctx, j2); err != nil {
		t.Fatal(err)
	}
	rounds2 := ctx.Cluster.Stats().Snapshot().ShuffleRounds
	// j2 re-runs j1 (2 shuffles) plus exactly one more for m.
	if rounds2-rounds1 != 3 {
		t.Fatalf("second join used %d shuffles, want 3 (two for the re-run inner join, one for the new side)", rounds2-rounds1)
	}
}

func TestJoinResidual(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 10)
	tables["r"] = intTable(ctx, 10)
	l := scanNode("l", 10, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 10, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	j := joinNode(l, r, 1, 1) // join on b = d (values 0..4, 2 rows each)
	j.Residual = []plan.Expr{&plan.Binary{Op: "<>", Kind: plan.BinCompare, L: col(0, types.TInt), R: col(2, types.TInt), T: types.TBool}}
	rel, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	// Each key has 2 l-rows × 2 r-rows = 4 pairs, minus the 2 identical
	// pairs = 2 per key × 5 keys = 10.
	if rel.NumRows() != 10 {
		t.Fatalf("rows %d", rel.NumRows())
	}
}

func TestCrossJoinBroadcast(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["big"] = intTable(ctx, 30)
	tables["small"] = intTable(ctx, 3)
	big := scanNode("big", 30, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	small := scanNode("small", 3, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	out := append(append(plan.Schema{}, big.Out...), small.Out...)
	cross := &plan.Cross{L: big, R: small, Out: out}
	rel, err := Run(ctx, cross)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 90 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if ctx.Cluster.Stats().Snapshot().BroadcastRounds != 1 {
		t.Fatal("expected exactly one broadcast")
	}
	// Column order must be L then R even though R was broadcast.
	for _, row := range rel.Rows() {
		if row[0].I > 29 || row[2].I > 2 {
			t.Fatalf("column order wrong: %v", row)
		}
	}
	// And with the big side on the right, order is still L-then-R.
	cross2 := &plan.Cross{L: small, R: big, Out: append(append(plan.Schema{}, small.Out...), big.Out...)}
	rel2, err := Run(ctx, cross2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel2.Rows() {
		if row[0].I > 2 || row[2].I > 29 {
			t.Fatalf("column order wrong after broadcast-left: %v", row)
		}
	}
}

func aggNode(input plan.Node, groupCol int, aggName string, inputCol int) *plan.Agg {
	spec, _ := builtins.LookupAgg(aggName)
	var groupBy []plan.Expr
	out := plan.Schema{}
	if groupCol >= 0 {
		groupBy = []plan.Expr{col(groupCol, types.TInt)}
		out = append(out, plan.Field{Name: "g", T: types.TInt})
	}
	var in plan.Expr
	if inputCol >= 0 {
		in = col(inputCol, types.TInt)
	}
	resT, _ := spec.ResultType(types.TInt)
	out = append(out, plan.Field{Name: aggName, T: resT})
	return &plan.Agg{Input: input, GroupBy: groupBy, Aggs: []plan.AggCall{{Spec: spec, Input: in, T: resT}}, Out: out}
}

func TestGroupedAggregate(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 50) // b = a % 5
	s := scanNode("t", 50, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	rel, err := Run(ctx, aggNode(s, 1, "count", -1))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 5 {
		t.Fatalf("groups %d", rel.NumRows())
	}
	for _, r := range rel.Rows() {
		if r[1].I != 10 {
			t.Fatalf("group %v count %v", r[0], r[1])
		}
	}
}

func TestScalarAggregateSinglePartitionOutput(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 50)
	s := scanNode("t", 50, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	rel, err := Run(ctx, aggNode(s, -1, "sum", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Single {
		t.Fatal("scalar aggregate should be single-partition")
	}
	rows := rel.Rows()
	if len(rows) != 1 || rows[0][0].I != 49*50/2 {
		t.Fatalf("rows %v", rows)
	}
}

func TestAggregateShuffleSkipWhenAligned(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 40)
	tables["r"] = intTable(ctx, 40)
	l := scanNode("l", 40, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 40, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	j := joinNode(l, r, 0, 0)
	// Group by the join key: rows are already co-located, so the aggregate
	// must not move any partial states.
	agg := aggNode(j, 0, "count", -1)
	before := ctx.Cluster.Stats().Snapshot()
	rel, err := Run(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	after := ctx.Cluster.Stats().Snapshot()
	if rel.NumRows() != 40 {
		t.Fatalf("groups %d", rel.NumRows())
	}
	// Two shuffles for the join inputs, none for the aggregate.
	if after.ShuffleRounds-before.ShuffleRounds != 2 {
		t.Fatalf("shuffle rounds = %d, want 2", after.ShuffleRounds-before.ShuffleRounds)
	}
}

func TestSortAndLimit(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 20)
	s := scanNode("t", 20, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	srt := &plan.Sort{Input: s, Keys: []plan.OrderKey{{Col: 1, Desc: false}, {Col: 0, Desc: true}}}
	lim := &plan.Limit{Input: srt, N: 4}
	rel, err := Run(ctx, lim)
	if err != nil {
		t.Fatal(err)
	}
	rows := rel.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	// b=0 group, a descending: 15, 10, 5, 0.
	want := []int64{15, 10, 5, 0}
	for i, r := range rows {
		if r[1].I != 0 || r[0].I != want[i] {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestTimingsAccumulate(t *testing.T) {
	tm := NewTimings()
	tm.Add("x", 5)
	tm.Add("x", 7)
	tm.Add("y", 1)
	if tm.Get("x") != 12 || tm.Get("y") != 1 {
		t.Fatal("timings wrong")
	}
	if tm.Total() != 13 {
		t.Fatalf("total %v", tm.Total())
	}
	labels := tm.Labels()
	if len(labels) != 2 || labels[0] != "x" || labels[1] != "y" {
		t.Fatalf("labels %v", labels)
	}
	// Nil timings are a no-op sink.
	var nilT *Timings
	nilT.Add("z", 1)
	if nilT.Get("z") != 0 || nilT.Total() != 0 || nilT.Labels() != nil {
		t.Fatal("nil timings should be inert")
	}
}

func TestRunRejectsMultiJoin(t *testing.T) {
	ctx := testCtx(memSource{})
	if _, err := Run(ctx, &plan.MultiJoin{}); err == nil {
		t.Fatal("unoptimized MultiJoin accepted")
	}
}

func TestOneRow(t *testing.T) {
	ctx := testCtx(memSource{})
	rel, err := Run(ctx, &plan.OneRow{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || !rel.Single {
		t.Fatalf("one-row relation %v", rel)
	}
}
