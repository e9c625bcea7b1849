package exec

import (
	"reflect"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

func outerSumCall(t *testing.T) plan.AggCall {
	t.Helper()
	spec, _ := builtins.LookupAgg("sum")
	fn, _ := builtins.Lookup("outer_product")
	vecT := types.TVector(types.KnownDim(2))
	input := &plan.Call{
		Fn:   fn,
		Args: []plan.Expr{col(0, vecT), col(0, vecT)},
		T:    types.TMatrix(types.KnownDim(2), types.KnownDim(2)),
	}
	return plan.AggCall{Spec: spec, Input: input, T: input.T}
}

// newState is the state a group table makes for c, with aggregate fusion on
// or off.
func newState(c plan.AggCall, fuse bool) builtins.AggState {
	kind := builtins.FusedNone
	if fuse {
		kind, _ = c.Fused()
	}
	return newGroupTable(&plan.Agg{Aggs: []plan.AggCall{c}}, []builtins.FusedKind{kind}).aggs[0].fresh()
}

// fusedFields is the bookkeeping a fused state keeps unexported: whether its
// accumulator and panels exist, the rows buffered, and its triangle flags.
type fusedFields struct {
	acc, pa, pb bool
	n           int
	sym, stale  bool
}

// fields reads st's fusedFields.
func fields(st *builtins.FusedSumState) fusedFields {
	v := reflect.ValueOf(st).Elem()
	return fusedFields{
		acc: !v.FieldByName("acc").IsNil(), pa: !v.FieldByName("pa").IsNil(), pb: !v.FieldByName("pb").IsNil(),
		n: int(v.FieldByName("n").Int()), sym: v.FieldByName("sym").Bool(), stale: v.FieldByName("stale").Bool(),
	}
}

func kindOf(a plan.AggCall) builtins.FusedKind {
	k, _ := a.Fused()
	return k
}

func TestFusedOfDetection(t *testing.T) {
	call := outerSumCall(t)
	if kindOf(call) != builtins.FusedOuterSum {
		t.Fatal("SUM(outer_product) not detected")
	}
	// COUNT never fuses.
	cnt, _ := builtins.LookupAgg("count")
	if kindOf(plan.AggCall{Spec: cnt, Input: call.Input}) != builtins.FusedNone {
		t.Fatal("COUNT misfused")
	}
	// SUM of a plain column never fuses.
	sum, _ := builtins.LookupAgg("sum")
	if kindOf(plan.AggCall{Spec: sum, Input: col(0, types.TDouble)}) != builtins.FusedNone {
		t.Fatal("plain SUM misfused")
	}
	// SUM(matrix_multiply) fuses.
	mm, _ := builtins.Lookup("matrix_multiply")
	mcall := &plan.Call{Fn: mm, Args: []plan.Expr{col(0, types.TMatrix(types.UnknownDim, types.UnknownDim)), col(0, types.TMatrix(types.UnknownDim, types.UnknownDim))}}
	if kindOf(plan.AggCall{Spec: sum, Input: mcall}) != builtins.FusedMatMulSum {
		t.Fatal("SUM(matrix_multiply) not detected")
	}
	// SUM(trans_matrix(c)·c) is a Gram sum over c alone; anything else
	// shaped like it stays a two-argument matrix_multiply sum.
	mt := types.TMatrix(types.UnknownDim, types.UnknownDim)
	tr, _ := builtins.Lookup("trans_matrix")
	trans := func(e plan.Expr) plan.Expr { return &plan.Call{Fn: tr, Args: []plan.Expr{e}, T: mt} }
	gram := func(a, b plan.Expr) plan.AggCall {
		return plan.AggCall{Spec: sum, Input: &plan.Call{Fn: mm, Args: []plan.Expr{a, b}, T: mt}, T: mt}
	}
	g := gram(trans(col(2, mt)), col(2, mt))
	if kind, args := g.Fused(); kind != builtins.FusedGramSum || len(args) != 1 || args[0].(*plan.Col).Idx != 2 {
		t.Fatalf("SUM(trans_matrix(c2)·c2): kind %d args %v", kind, args)
	}
	for name, c := range map[string]plan.AggCall{
		"trans_matrix(c0)·c1":      gram(trans(col(0, mt)), col(1, mt)),
		"c·trans_matrix(c)":        gram(col(0, mt), trans(col(0, mt))),
		"non-column argument":      gram(trans(&plan.Neg{E: col(0, mt), T: mt}), &plan.Neg{E: col(0, mt), T: mt}),
		"constants printing alike": gram(trans(&plan.Const{V: value.Matrix(linalg.Identity(2)), T: mt}), &plan.Const{V: value.Matrix(linalg.Identity(2)), T: mt}),
	} {
		if kind, args := c.Fused(); kind != builtins.FusedMatMulSum || len(args) != 2 {
			t.Fatalf("%s: kind %d with %d args, want a two-argument matrix_multiply sum", name, kind, len(args))
		}
	}
	// With fusion disabled the Gram sum is an ordinary SUM over the
	// materialized product, and the call is its one argument.
	if _, ok := newState(g, false).(*builtins.FusedSumState); ok {
		t.Fatal("fusion disabled, yet the state is fused")
	}
	a := &plan.Agg{Aggs: []plan.AggCall{g}, Out: plan.Schema{{Name: "g", T: mt}}}
	for _, disable := range []bool{false, true} {
		ctx := testCtx(memSource{})
		ctx.DisableAggFusion = disable
		pa := newPartAgg(ctx, a, 0, nil)
		want := []plan.Expr{g.Input}
		if !disable {
			want = g.Input.(*plan.Call).Args[1:]
		}
		if len(pa.args[0]) != 1 || pa.args[0][0] != want[0] {
			t.Fatalf("DisableAggFusion=%v: arguments %v, want %v", disable, pa.args[0], want)
		}
		if got := newGroupTable(a, pa.fused).aggs[0].fused; (got == builtins.FusedGramSum) == disable {
			t.Fatalf("DisableAggFusion=%v: table's fused kind %d", disable, got)
		}
		pa.release()
	}
}

func TestFusedOuterSumMatchesUnfused(t *testing.T) {
	call := outerSumCall(t)
	rows := []value.Row{
		{value.Vector(linalg.VectorOf(1, 2))},
		{value.Vector(linalg.VectorOf(3, -1))},
		{value.Vector(linalg.VectorOf(0, 5))},
	}
	// Fused path.
	st := newState(call, true)
	fused, ok := st.(*builtins.FusedSumState)
	if !ok {
		t.Fatalf("state is %T, want fused", st)
	}
	for _, r := range rows {
		if err := fused.StepFused(r[0], r[0]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fused.Final()
	if err != nil {
		t.Fatal(err)
	}
	// Unfused reference: the materialized outer products, evaluated over one
	// window.
	ref := call.Spec.New()
	var w rowWindow
	w.open(rows, nil, 0, len(rows))
	products, err := plan.EvalVec(call.Input, &w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := ref.Step(products.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mat.EqualApprox(want.Mat, 1e-12) {
		t.Fatalf("fused %v != unfused %v", got.Mat, want.Mat)
	}
}

func TestFusedSumEmptyIsNull(t *testing.T) {
	call := outerSumCall(t)
	v, err := newState(call, true).Final()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Fatalf("empty fused SUM = %v, want NULL", v)
	}
}

func TestFusedSumMerge(t *testing.T) {
	call := outerSumCall(t)
	a := newState(call, true).(*builtins.FusedSumState)
	b := newState(call, true).(*builtins.FusedSumState)
	x := value.Vector(linalg.VectorOf(1, 0))
	_ = a.StepFused(x, x)
	y := value.Vector(linalg.VectorOf(0, 2))
	_ = b.StepFused(y, y)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 0}, {0, 4}})
	if !got.Mat.Equal(want) {
		t.Fatalf("merged = %v", got.Mat)
	}
	// Merging an empty state is a no-op.
	if err := a.Merge(newState(call, true)); err != nil {
		t.Fatal(err)
	}
	// Merging into an empty state adopts the other side.
	c := newState(call, true).(*builtins.FusedSumState)
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	got2, _ := c.Final()
	if !got2.Mat.Equal(want) {
		t.Fatalf("adopted = %v", got2.Mat)
	}
	// Merging with a foreign state type errors.
	if err := c.Merge(builtins.Sum.New()); err == nil {
		t.Fatal("merge with plain sum state accepted")
	}
}

func TestFusedSumNullInputsSkipped(t *testing.T) {
	call := outerSumCall(t)
	st := newState(call, true).(*builtins.FusedSumState)
	if err := st.StepFused(value.Null(), value.Null()); err != nil {
		t.Fatal(err)
	}
	ones := value.Vector(linalg.VectorOf(1, 1))
	if err := st.StepFused(ones, value.Null()); err != nil {
		t.Fatal(err)
	}
	if err := st.StepFused(ones, ones); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if !got.Mat.Equal(want) {
		t.Fatalf("after null skip = %v", got.Mat)
	}
}

func TestFusedSumShapeError(t *testing.T) {
	call := outerSumCall(t)
	st := newState(call, true).(*builtins.FusedSumState)
	two, three := value.Vector(linalg.VectorOf(1, 2)), value.Vector(linalg.VectorOf(1, 2, 3))
	_ = st.StepFused(two, two)
	if err := st.StepFused(three, three); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestProjectionFusionMatchesUnfused compares a fused Project-over-Join with
// the manually staged equivalent.
func TestProjectionFusionMatchesUnfused(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 20)
	tables["r"] = intTable(ctx, 20)
	l := scanNode("l", 20, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 20, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	join := joinNode(l, r, 0, 0)
	proj := &plan.Project{
		Input: join,
		Exprs: []plan.Expr{
			&plan.Binary{Op: "+", Kind: plan.BinArith, L: col(1, types.TInt), R: col(3, types.TInt), T: types.TInt},
		},
		Out: plan.Schema{{Name: "s", T: types.TInt}},
	}
	rel, err := Run(ctx, proj)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.String() != "(s INTEGER)" {
		t.Fatalf("fused schema %s", rel.Schema)
	}
	var total int64
	for _, row := range rel.Rows() {
		if len(row) != 1 {
			t.Fatalf("row width %d (fusion must emit projected rows)", len(row))
		}
		total += row[0].I
	}
	// Sum of b+d over the 20 key-matched pairs: 2 * sum(i%5 for i<20).
	want := int64(2 * (0 + 1 + 2 + 3 + 4) * 4)
	if total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

func TestFusedMatMulSum(t *testing.T) {
	spec, _ := builtins.LookupAgg("sum")
	mm, _ := builtins.Lookup("matrix_multiply")
	mt := types.TMatrix(types.KnownDim(2), types.KnownDim(2))
	call := plan.AggCall{
		Spec:  spec,
		Input: &plan.Call{Fn: mm, Args: []plan.Expr{col(0, mt), col(1, mt)}, T: mt},
		T:     mt,
	}
	st := newState(call, true).(*builtins.FusedSumState)
	id := linalg.Identity(2)
	two := id.Scale(2)
	if err := st.StepFused(value.Matrix(id), value.Matrix(two)); err != nil {
		t.Fatal(err)
	}
	if err := st.StepFused(value.Matrix(two), value.Matrix(two)); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Final()
	if !got.Mat.Equal(id.Scale(6)) {
		t.Fatalf("fused matmul sum = %v", got.Mat)
	}
	// Kind errors.
	if err := st.StepFused(value.Int(1), value.Matrix(id)); err == nil {
		t.Fatal("non-matrix operand accepted")
	}
}

func TestCompareForSortNulls(t *testing.T) {
	if c, err := compareForSort(value.Null(), value.Null()); err != nil || c != 0 {
		t.Fatalf("null/null = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Null(), value.Int(1)); err != nil || c != -1 {
		t.Fatalf("null/1 = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Int(1), value.Null()); err != nil || c != 1 {
		t.Fatalf("1/null = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Int(1), value.Int(2)); err != nil || c != -1 {
		t.Fatalf("1/2 = %d, %v", c, err)
	}
}
