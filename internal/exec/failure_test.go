package exec

import (
	"errors"
	"strings"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// failingSource errors on lookup, simulating a lost storage node.
type failingSource struct{}

func (failingSource) OpenTable(string) (Table, error) {
	return nil, errors.New("storage node lost")
}

func TestScanFailurePropagates(t *testing.T) {
	ctx := testCtx(nil)
	ctx.Tables = failingSource{}
	s := scanNode("t", 1, catalog.Column{Name: "a", Type: types.TInt})
	if _, err := Run(ctx, s); err == nil || !strings.Contains(err.Error(), "storage node lost") {
		t.Fatalf("error = %v", err)
	}
	// The failure must also surface through downstream operators.
	ops := []plan.Node{
		&plan.Project{Input: s, Exprs: []plan.Expr{col(0, types.TInt)}, Out: plan.Schema{{Name: "a", T: types.TInt}}},
		&plan.Filter{Input: s, Pred: &plan.Const{V: value.Bool(true), T: types.TBool}},
		&plan.Sort{Input: s},
		&plan.Limit{Input: s, N: 1},
		&plan.Agg{Input: s, Out: plan.Schema{}},
		joinNode(s, s, 0, 0),
		&plan.Cross{L: s, R: s, Out: plan.Schema{}},
	}
	for i, op := range ops {
		if _, err := Run(ctx, op); err == nil {
			t.Errorf("op %d: scan failure swallowed", i)
		}
	}
}

// TestRuntimeExpressionErrorAborts: a runtime evaluation error on one
// partition (singular matrix inverse) aborts the whole query with the
// underlying error, from every operator that evaluates expressions.
func TestRuntimeExpressionErrorAborts(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	// One singular matrix among several invertible ones, spread across
	// partitions.
	var rows []value.Row
	for i := 0; i < 10; i++ {
		m := linalg.Identity(2)
		if i == 7 {
			m = linalg.NewMatrix(2, 2) // singular
		}
		rows = append(rows, value.Row{value.Matrix(m)})
	}
	tables["m"] = ctx.Cluster.ScatterRoundRobin(rows)
	s := scanNode("m", 10, catalog.Column{Name: "mat", Type: types.TMatrix(types.KnownDim(2), types.KnownDim(2))})
	inv, _ := builtins.Lookup("matrix_inverse")
	call := &plan.Call{Fn: inv, Args: []plan.Expr{col(0, types.TMatrix(types.KnownDim(2), types.KnownDim(2)))}, T: types.TMatrix(types.KnownDim(2), types.KnownDim(2))}

	proj := &plan.Project{Input: s, Exprs: []plan.Expr{call}, Out: plan.Schema{{Name: "inv", T: call.T}}}
	if _, err := Run(testCtxShared(ctx, tables), proj); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("projection error = %v", err)
	}

	// The same failure through a filter predicate...
	gt := &plan.Binary{Op: ">", Kind: plan.BinCompare,
		L: &plan.Call{Fn: mustLookup(t, "trace"), Args: []plan.Expr{call}, T: types.TDouble},
		R: &plan.Const{V: value.Double(0), T: types.TDouble}, T: types.TBool}
	filt := &plan.Filter{Input: s, Pred: gt}
	if _, err := Run(testCtxShared(ctx, tables), filt); err == nil {
		t.Fatal("filter swallowed evaluation error")
	}

	// ...and through an aggregate input.
	sum, _ := builtins.LookupAgg("sum")
	agg := &plan.Agg{Input: s, Aggs: []plan.AggCall{{Spec: sum, Input: call, T: call.T}}, Out: plan.Schema{{Name: "s", T: call.T}}}
	if _, err := Run(testCtxShared(ctx, tables), agg); err == nil {
		t.Fatal("aggregate swallowed evaluation error")
	}
}

func mustLookup(t *testing.T, name string) *builtins.Builtin {
	t.Helper()
	b, ok := builtins.Lookup(name)
	if !ok {
		t.Fatalf("missing builtin %s", name)
	}
	return b
}

// testCtxShared makes a fresh context over the same tables (fresh budget).
func testCtxShared(old *Context, tables memSource) *Context {
	c := testCtx(tables)
	return c
}

// TestJoinKeyErrorAborts: an error while evaluating a join key (in the input
// stage's exchange sink) surfaces instead of silently misrouting rows.
func TestJoinKeyErrorAborts(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 10)
	tables["r"] = intTable(ctx, 10)
	l := scanNode("l", 10, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 10, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	bad := &plan.Col{Idx: 99, Name: "missing", T: types.TInt} // out of range at run time
	j := &plan.Join{L: l, R: r, LKeys: []plan.Expr{bad}, RKeys: []plan.Expr{col(0, types.TInt)},
		Out: append(append(plan.Schema{}, l.Out...), r.Out...)}
	if _, err := Run(ctx, j); err == nil {
		t.Fatal("join key evaluation error swallowed")
	}
}

// TestResidualErrorAborts: errors inside residual predicates surface too.
func TestResidualErrorAborts(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 4)
	tables["r"] = intTable(ctx, 4)
	l := scanNode("l", 4, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 4, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	bad := &plan.Binary{Op: "=", Kind: plan.BinCompare, L: &plan.Col{Idx: 50, T: types.TInt}, R: col(0, types.TInt), T: types.TBool}
	cross := &plan.Cross{L: l, R: r, Residual: []plan.Expr{bad},
		Out: append(append(plan.Schema{}, l.Out...), r.Out...)}
	if _, err := Run(ctx, cross); err == nil {
		t.Fatal("cross residual error swallowed")
	}
}

// TestBudgetErrorsNameOperator: when the intermediate-tuple budget trips, the
// error names the operator that tripped it and errors.Is still matches
// cluster.ErrResourceExhausted (callers branch on the sentinel; humans read
// the label).
func TestBudgetErrorsNameOperator(t *testing.T) {
	newCtx := func(tables memSource, budget int64) *Context {
		cl := cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2,
			SerializeShuffles: true, MaxIntermediateTuples: budget})
		return &Context{Cluster: cl, Tables: tables, Timings: NewTimings()}
	}

	tables := memSource{}
	seed := testCtx(tables)
	tables["l"] = intTable(seed, 40)
	tables["r"] = intTable(seed, 40)
	l := scanNode("l", 40, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 40, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	// countOver is Agg ← Project ← in: the join streams into the local
	// aggregate, so the budget must still trip inside the join's own stage.
	countOver := func(in plan.Node) plan.Node {
		proj := &plan.Project{Input: in, Exprs: []plan.Expr{col(0, types.TInt), col(3, types.TInt)},
			Out: plan.Schema{{Name: "a", T: types.TInt}, {Name: "d", T: types.TInt}}}
		return aggNode(proj, 1, "count", -1)
	}
	keepAll := &plan.Binary{Op: ">=", Kind: plan.BinCompare, L: col(0, types.TInt), R: &plan.Const{V: value.Int(0), T: types.TInt}, T: types.TBool}
	cross := func() *plan.Cross {
		return &plan.Cross{L: l, R: r, Out: append(append(plan.Schema{}, l.Out...), r.Out...)}
	}

	cases := []struct {
		label  string
		budget int64
		node   plan.Node
	}{
		// Join on b=d (5 distinct values → 40*8=320 matches) blows a 50-tuple
		// budget inside the probe loop. Sort and aggregate charge their 40
		// output rows, so a budget of 30 trips them (scans don't charge).
		{"hash join", 50, joinNode(l, r, 1, 1)},
		{"cross join", 50, cross()},
		{"hash join", 50, countOver(joinNode(l, r, 1, 1))},
		{"cross join", 50, countOver(cross())},
		// A filter over a scan and the same filter feeding an aggregate are
		// one stage each: its 40 surviving lanes trip a budget of 30 at the
		// stage's commit, before the aggregate runs.
		{"pipeline", 30, &plan.Filter{Input: l, Pred: keepAll}},
		{"pipeline", 30, aggNode(&plan.Filter{Input: l, Pred: keepAll}, 1, "count", -1)},
		{"sort", 30, &plan.Sort{Input: l, Keys: []plan.OrderKey{{Col: 0}}}},
		{"aggregate", 30, &plan.Agg{Input: l,
			GroupBy: []plan.Expr{col(0, types.TInt)},
			Out:     plan.Schema{{Name: "a", T: types.TInt}}}},
		// The bare scan stage under the LIMIT charges nothing: its gather
		// of 35 rows is what trips the budget.
		{"limit", 30, &plan.Limit{Input: l, N: 35}},
	}
	for _, tc := range cases {
		_, err := Run(newCtx(tables, tc.budget), tc.node)
		if err == nil {
			t.Errorf("%s: budget not tripped", tc.label)
			continue
		}
		if !errors.Is(err, cluster.ErrResourceExhausted) {
			t.Errorf("%s: errors.Is(ErrResourceExhausted) = false: %v", tc.label, err)
		}
		if !strings.Contains(err.Error(), tc.label+":") {
			t.Errorf("%s: error does not name the operator: %v", tc.label, err)
		}
	}
}

// TestSortOnUncomparableErrors: ORDER BY over vectors is a runtime error,
// not a panic.
func TestSortOnUncomparableErrors(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	rows := []value.Row{
		{value.Vector(linalg.VectorOf(1))},
		{value.Vector(linalg.VectorOf(2))},
	}
	tables["v"] = ctx.Cluster.ScatterRoundRobin(rows)
	s := scanNode("v", 2, catalog.Column{Name: "vec", Type: types.TVector(types.UnknownDim)})
	srt := &plan.Sort{Input: s, Keys: []plan.OrderKey{{Col: 0}}}
	if _, err := Run(ctx, srt); err == nil {
		t.Fatal("sorting vectors succeeded")
	}
}
