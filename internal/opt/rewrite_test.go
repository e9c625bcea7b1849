package opt

import (
	"strings"
	"testing"

	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// laCatalog builds a schema exercising every rewrite rule:
//
//	m3 (a MATRIX[50][50], b MATRIX[50][50], c MATRIX[50][2])  -- 100 rows
//	vv (x VECTOR[30], y VECTOR[30], grp INTEGER)              -- 500 rows
func laCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	add := func(name string, rows int64, cols ...catalog.Column) {
		t.Helper()
		meta := catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, rows)
		if err := cat.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	add("m3", 100,
		catalog.Column{Name: "a", Type: types.TMatrix(types.KnownDim(50), types.KnownDim(50))},
		catalog.Column{Name: "b", Type: types.TMatrix(types.KnownDim(50), types.KnownDim(50))},
		catalog.Column{Name: "c", Type: types.TMatrix(types.KnownDim(50), types.KnownDim(2))})
	add("vv", 500,
		catalog.Column{Name: "x", Type: types.TVector(types.KnownDim(30))},
		catalog.Column{Name: "y", Type: types.TVector(types.KnownDim(30))},
		catalog.Column{Name: "grp", Type: types.TInt})
	cat.SetDistinct("vv", "grp", 10)
	return cat
}

// statsOptions returns default options wired to a fresh counter set.
func statsOptions() (Options, *RewriteStats) {
	opts := DefaultOptions()
	st := &RewriteStats{}
	opts.Stats = st
	return opts, st
}

// TestRewriteChainReorder pins the matrix-chain DP: (A·B)·C over 50×50,
// 50×50, 50×2 costs 130k multiplications, A·(B·C) costs 10k, so the plan
// must re-associate to the right.
func TestRewriteChainReorder(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT matrix_multiply(matrix_multiply(a, b), c) AS p FROM m3`, opts)
	text := plan.Explain(n)
	if !strings.Contains(text, "matrix_multiply(#0:a, matrix_multiply(#1:b, #2:c))") {
		t.Fatalf("chain not re-associated:\n%s", text)
	}
	if st.ChainReorder.Load() == 0 {
		t.Fatal("ChainReorder counter did not fire")
	}
	if got := n.Schema().String(); got != "(p MATRIX[50][2])" {
		t.Fatalf("schema %s", got)
	}
}

// TestRewriteChainReorderAlreadyOptimal: a chain whose given association is
// already the DP optimum must come out untouched with no counter fired.
func TestRewriteChainReorderAlreadyOptimal(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT matrix_multiply(a, matrix_multiply(b, c)) AS p FROM m3`, opts)
	if !strings.Contains(plan.Explain(n), "matrix_multiply(#0:a, matrix_multiply(#1:b, #2:c))") {
		t.Fatalf("optimal chain changed:\n%s", plan.Explain(n))
	}
	if st.ChainReorder.Load() != 0 {
		t.Fatal("ChainReorder fired on an already-optimal chain")
	}
}

// TestRewriteOuterProduct pins col_matrix(x)·row_matrix(y) → outer_product.
func TestRewriteOuterProduct(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT matrix_multiply(col_matrix(x), row_matrix(y)) AS op FROM vv`, opts)
	text := plan.Explain(n)
	if !strings.Contains(text, "outer_product(#0:x, #1:y)") {
		t.Fatalf("outer product not recognized:\n%s", text)
	}
	if strings.Contains(text, "col_matrix") || strings.Contains(text, "row_matrix") {
		t.Fatalf("conversion calls survived the rewrite:\n%s", text)
	}
	if st.OuterProduct.Load() == 0 {
		t.Fatal("OuterProduct counter did not fire")
	}
	if got := n.Schema().String(); got != "(op MATRIX[30][30])" {
		t.Fatalf("schema %s", got)
	}
}

// TestRewriteDoubleTranspose pins t(t(X)) → X.
func TestRewriteDoubleTranspose(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT trans_matrix(trans_matrix(a)) AS m FROM m3`, opts)
	text := plan.Explain(n)
	if strings.Contains(text, "trans_matrix") {
		t.Fatalf("double transpose survived:\n%s", text)
	}
	if st.DoubleTranspose.Load() == 0 {
		t.Fatal("DoubleTranspose counter did not fire")
	}
}

// TestRewriteFilterPushdown pins σ(π(R)) → π(σ(R)) for predicates over
// pass-through columns. The SQL builder never produces Filter-over-Project,
// so the input plan is assembled by hand (the shape HAVING-style rewrites
// and view expansion produce).
func TestRewriteFilterPushdown(t *testing.T) {
	cat := laCatalog(t)
	meta, _ := cat.Table("vv")
	out := plan.Schema{
		{Name: "x", T: types.TVector(types.KnownDim(30))},
		{Name: "y", T: types.TVector(types.KnownDim(30))},
		{Name: "grp", T: types.TInt},
	}
	scan := &plan.Scan{Table: meta, Out: out}
	proj := &plan.Project{
		Input: scan,
		Exprs: []plan.Expr{
			&plan.Col{Idx: 2, Name: "grp", T: types.TInt}, // reordered pass-through
			&plan.Col{Idx: 0, Name: "x", T: out[0].T},
		},
		Out: plan.Schema{{Name: "grp", T: types.TInt}, {Name: "x", T: out[0].T}},
	}
	pred := &plan.Binary{Op: "=", Kind: plan.BinCompare,
		L: &plan.Col{Idx: 0, Name: "grp", T: types.TInt},
		R: &plan.Const{V: value.Int(3), T: types.TInt},
		T: types.TBool}
	opts, st := statsOptions()
	n, err := New(opts).Optimize(&plan.Filter{Input: proj, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	text := plan.Explain(n)
	projLine := strings.Index(text, "Project")
	filterLine := strings.Index(text, "Filter")
	if projLine < 0 || filterLine < 0 || filterLine < projLine {
		t.Fatalf("filter not pushed below projection:\n%s", text)
	}
	// The pushed predicate must reference the projection's source column.
	if !strings.Contains(text, "Filter (#2:grp = 3)") {
		t.Fatalf("pushed predicate not remapped:\n%s", text)
	}
	if st.FilterPushdown.Load() == 0 {
		t.Fatal("FilterPushdown counter did not fire")
	}
}

// TestRewriteAggPushdown pins trace(SUM(M)) → SUM(trace(M)): the aggregation
// shuffles scalars instead of 50×50 matrices.
func TestRewriteAggPushdown(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT trace(SUM(a)) AS tr FROM m3`, opts)
	text := plan.Explain(n)
	if !strings.Contains(text, "sum(trace(#0:a))") {
		t.Fatalf("trace not pushed inside SUM:\n%s", text)
	}
	if st.AggPushdown.Load() == 0 {
		t.Fatal("AggPushdown counter did not fire")
	}
	if got := n.Schema().String(); got != "(tr DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
}

// TestRewriteAggPushdownSharedOutputHeldBack: an aggregate output consumed
// twice must not be pushed (the two consumers would each need their own
// aggregate).
func TestRewriteAggPushdownSharedOutputHeldBack(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT trace(SUM(a)) AS t1, sum_matrix(SUM(a)) AS t2 FROM m3`, opts)
	text := plan.Explain(n)
	if st.AggPushdown.Load() != 0 {
		t.Fatalf("pushed a shared aggregate output:\n%s", text)
	}
}

// TestRewriteCSE pins common-subexpression extraction: the repeated
// matrix_multiply evaluates once in a child projection.
func TestRewriteCSE(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat,
		`SELECT trace(matrix_multiply(a, b)) AS t1, sum_matrix(matrix_multiply(a, b)) AS t2 FROM m3`, opts)
	text := plan.Explain(n)
	if got := strings.Count(text, "matrix_multiply"); got != 1 {
		t.Fatalf("shared multiply evaluated %d times:\n%s", got, text)
	}
	if !strings.Contains(text, "cse0") {
		t.Fatalf("no shared column introduced:\n%s", text)
	}
	if st.CSE.Load() == 0 {
		t.Fatal("CSE counter did not fire")
	}
	if got := n.Schema().String(); got != "(t1 DOUBLE, t2 DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
}

// TestRewriteFuseMarking pins what the optimizer contributes to fused
// accumulation: a SUM over col_matrix·row_matrix reaches the Agg as
// SUM(outer_product(x, y)), the shape the executor fuses (plan.AggCall.Fused).
func TestRewriteFuseMarking(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	n := optimize(t, cat, `SELECT SUM(matrix_multiply(col_matrix(x), row_matrix(y))) AS g FROM vv`, opts)
	ag := findAgg(n)
	if ag == nil {
		t.Fatalf("no Agg in plan:\n%s", plan.Explain(n))
	}
	call, ok := ag.Aggs[0].Input.(*plan.Call)
	if !ok || call.Fn.Name != "outer_product" || len(call.Args) != 2 {
		t.Fatalf("SUM input = %v, want outer_product(x, y); plan:\n%s", ag.Aggs[0].Input, plan.Explain(n))
	}
	if st.OuterProduct.Load() == 0 {
		t.Fatal("OuterProduct counter did not fire")
	}
}

// findAgg returns the first Agg node in the tree.
func findAgg(n plan.Node) *plan.Agg {
	if ag, ok := n.(*plan.Agg); ok {
		return ag
	}
	for _, c := range n.Children() {
		if ag := findAgg(c); ag != nil {
			return ag
		}
	}
	return nil
}

// TestRewritesDisabledLeavesPlanAlone: the ablation leg must not fire any
// rule.
func TestRewritesDisabledLeavesPlanAlone(t *testing.T) {
	cat := laCatalog(t)
	opts, st := statsOptions()
	opts.Rewrites = false
	n := optimize(t, cat, `SELECT matrix_multiply(matrix_multiply(a, b), c) AS p FROM m3`, opts)
	if !strings.Contains(plan.Explain(n), "matrix_multiply(matrix_multiply(#0:a, #1:b), #2:c)") {
		t.Fatalf("rewrites-off plan was changed:\n%s", plan.Explain(n))
	}
	if st.Total() != 0 {
		t.Fatalf("counters fired with rewrites off: %s", st.String())
	}
}

// TestEstimateRowsJoinSelectivity pins the S2 bugfix: an equi-join costs
// |L|·|R|/max(d_L, d_R), not a fixed tenth — and column statistics survive
// pass-through projections (S1).
func TestEstimateRowsJoinSelectivity(t *testing.T) {
	cat := paperCatalog(t)
	meta, _ := cat.Table("t")
	out := plan.Schema{{Name: "t_rid", T: types.TInt}, {Name: "t_sid", T: types.TInt}}
	key := &plan.Col{Idx: 1, Name: "t_sid", T: types.TInt}
	mk := func() *plan.Scan { return &plan.Scan{Table: meta, Out: out} }
	join := &plan.Join{L: mk(), R: mk(), LKeys: []plan.Expr{key}, RKeys: []plan.Expr{key}}
	// 1000·1000 / max(100, 100) = 10000.
	if got := EstimateRows(join); got != 10000 {
		t.Fatalf("equi-join estimate = %g, want 10000", got)
	}
	// The same join through a column-reordering projection must not lose the
	// statistics (pre-fix this degraded to rows=1000 ⇒ estimate 1000).
	proj := &plan.Project{
		Input: mk(),
		Exprs: []plan.Expr{&plan.Col{Idx: 1, Name: "t_sid", T: types.TInt}},
		Out:   plan.Schema{{Name: "t_sid", T: types.TInt}},
	}
	pkey := &plan.Col{Idx: 0, Name: "t_sid", T: types.TInt}
	pj := &plan.Join{L: proj, R: mk(), LKeys: []plan.Expr{pkey}, RKeys: []plan.Expr{key}}
	if got := EstimateRows(pj); got != 10000 {
		t.Fatalf("projected equi-join estimate = %g, want 10000", got)
	}
	// No keys (cross-ish Join) keeps the legacy tenth.
	nokeys := &plan.Join{L: mk(), R: mk()}
	if got := EstimateRows(nokeys); got != 100000 {
		t.Fatalf("keyless join estimate = %g, want 100000", got)
	}
	// Bound pins the observed cardinality exactly.
	if got := EstimateRows(&plan.Bound{Input: mk(), Rows: 42}); got != 42 {
		t.Fatalf("bound estimate = %g, want 42", got)
	}
	// Filter selectivity: equality against a constant keeps 1/d of the rows.
	pred := &plan.Binary{Op: "=", Kind: plan.BinCompare,
		L: key, R: &plan.Const{V: value.Int(5), T: types.TInt}, T: types.TBool}
	if got := EstimateRows(&plan.Filter{Input: mk(), Pred: pred}); got != 10 {
		t.Fatalf("const-equality filter estimate = %g, want 10", got)
	}
}

// TestOptimizeRecursesThroughJoin pins the S3 bugfix: a MultiJoin nested
// under a hand-built Join must still get planned instead of reaching the
// executor raw.
func TestOptimizeRecursesThroughJoin(t *testing.T) {
	cat := paperCatalog(t)
	meta, _ := cat.Table("t")
	out := plan.Schema{{Name: "t_rid", T: types.TInt}, {Name: "t_sid", T: types.TInt}}
	mk := func() *plan.Scan { return &plan.Scan{Table: meta, Out: out} }
	inner := &plan.MultiJoin{
		Inputs: []plan.Node{mk(), mk()},
		Conjuncts: []plan.Expr{&plan.Binary{Op: "=", Kind: plan.BinCompare,
			L: &plan.Col{Idx: 1, Name: "t_sid", T: types.TInt},
			R: &plan.Col{Idx: 3, Name: "t_sid", T: types.TInt},
			T: types.TBool}},
		Out: append(append(plan.Schema{}, out...), out...),
	}
	key := &plan.Col{Idx: 0, Name: "t_rid", T: types.TInt}
	root := &plan.Join{
		L: inner, R: mk(),
		LKeys: []plan.Expr{key}, RKeys: []plan.Expr{key},
		Out: append(append(plan.Schema{}, inner.Out...), out...),
	}
	n, err := New(DefaultOptions()).Optimize(root)
	if err != nil {
		t.Fatal(err)
	}
	text := plan.Explain(n)
	if strings.Contains(text, "MultiJoin") {
		t.Fatalf("nested MultiJoin left unplanned:\n%s", text)
	}
	if n.Schema().String() != root.Schema().String() {
		t.Fatalf("schema changed: %s -> %s", root.Schema(), n.Schema())
	}
}

// TestReplanReordersWithObservedCardinalities drives opt.Replan directly: a
// region planned as (small ⋈ big) ⋈ big under wrong estimates must come back
// re-ordered when the observed counts invert the sizes, with every leaf
// pinned as a Bound node and the schema preserved.
func TestReplanReordersWithObservedCardinalities(t *testing.T) {
	cat := paperCatalog(t)
	meta, _ := cat.Table("t")
	out := plan.Schema{{Name: "t_rid", T: types.TInt}, {Name: "t_sid", T: types.TInt}}
	s1 := &plan.Scan{Table: meta, Out: out}
	s2 := &plan.Scan{Table: meta, Out: out}
	s3 := &plan.Scan{Table: meta, Out: out}
	sid := func(idx int) plan.Expr { return &plan.Col{Idx: idx, Name: "t_sid", T: types.TInt} }
	lower := &plan.Join{L: s1, R: s2,
		LKeys: []plan.Expr{sid(1)}, RKeys: []plan.Expr{sid(1)},
		Out: append(append(plan.Schema{}, out...), out...)}
	root := &plan.Join{L: lower, R: s3,
		LKeys: []plan.Expr{sid(1)}, RKeys: []plan.Expr{sid(1)},
		Out: append(append(plan.Schema{}, lower.Out...), out...)}

	observed := map[plan.Node]float64{s1: 100000, s2: 100000, s3: 3}
	n, err := New(DefaultOptions()).Replan(root, func(leaf plan.Node) (float64, bool) {
		r, ok := observed[leaf]
		return r, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	text := plan.Explain(n)
	if got := strings.Count(text, "Bound"); got != 3 {
		t.Fatalf("expected 3 Bound leaves, got %d:\n%s", got, text)
	}
	if n.Schema().String() != root.Schema().String() {
		t.Fatalf("schema changed: %s -> %s", root.Schema(), n.Schema())
	}
	// The tiny relation must join below the huge⋈huge pairing: with 3 rows
	// against 100k⋈100k, any order that starts with the two big inputs pays
	// ~10^8 intermediate rows, so the re-plan must not keep them adjacent.
	if strings.Index(text, "Bound rows=3") > strings.LastIndex(text, "Bound rows=100000") {
		t.Fatalf("small input not pulled up in the re-planned order:\n%s", text)
	}
	// A missing observation is an error, not a silent guess.
	if _, err := New(DefaultOptions()).Replan(root, func(plan.Node) (float64, bool) { return 0, false }); err == nil {
		t.Fatal("Replan with missing observations should fail")
	}
}
