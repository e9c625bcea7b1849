package plan

import (
	"strings"
	"testing"

	"relalg/internal/catalog"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
	"relalg/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mustCreate := func(name string, cols ...catalog.Column) {
		t.Helper()
		if err := cat.CreateTable(&catalog.TableMeta{Name: name, Schema: catalog.Schema{Cols: cols}}); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("y",
		catalog.Column{Name: "i", Type: types.TInt},
		catalog.Column{Name: "y_i", Type: types.TDouble})
	mustCreate("x_vm",
		catalog.Column{Name: "id", Type: types.TInt},
		catalog.Column{Name: "value", Type: types.TVector(types.UnknownDim)})
	mustCreate("m",
		catalog.Column{Name: "mat", Type: types.TMatrix(types.KnownDim(10), types.KnownDim(10))},
		catalog.Column{Name: "vec", Type: types.TVector(types.KnownDim(100))})
	mustCreate("m2",
		catalog.Column{Name: "mat", Type: types.TMatrix(types.KnownDim(10), types.KnownDim(10))},
		catalog.Column{Name: "vec", Type: types.TVector(types.KnownDim(10))})
	mustCreate("u", catalog.Column{Name: "u_matrix", Type: types.TMatrix(types.KnownDim(1000), types.KnownDim(100))})
	mustCreate("v", catalog.Column{Name: "v_matrix", Type: types.TMatrix(types.KnownDim(100), types.KnownDim(10000))})
	mustCreate("xt",
		catalog.Column{Name: "row_index", Type: types.TInt},
		catalog.Column{Name: "col_index", Type: types.TInt},
		catalog.Column{Name: "value", Type: types.TDouble})
	return cat
}

func buildQuery(t *testing.T, cat *catalog.Catalog, src string) Node {
	t.Helper()
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n, err := NewBuilder(cat).BuildSelect(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatalf("build %q: %v", src, err)
	}
	return n
}

func buildErr(t *testing.T, cat *catalog.Catalog, src string) error {
	t.Helper()
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = NewBuilder(cat).BuildSelect(stmt.(*sqlparse.Select))
	if err == nil {
		t.Fatalf("build %q succeeded, want error", src)
	}
	return err
}

func TestBuildSimpleProjection(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT i, y_i AS val FROM y")
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("root is %T", n)
	}
	if got := p.Schema().String(); got != "(i INTEGER, val DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
	if _, ok := p.Input.(*Scan); !ok {
		t.Fatalf("input is %T", p.Input)
	}
}

func TestBuildSelectStar(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT * FROM y")
	if got := n.Schema().String(); got != "(i INTEGER, y_i DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
}

func TestBuildWhereBecomesFilter(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT i FROM y WHERE y_i > 1 AND i < 5")
	p := n.(*Project)
	// Two conjuncts stack as two filters over the scan.
	f1, ok := p.Input.(*Filter)
	if !ok {
		t.Fatalf("input is %T", p.Input)
	}
	if _, ok := f1.Input.(*Filter); !ok {
		t.Fatalf("inner is %T", f1.Input)
	}
}

func TestBuildMultiJoin(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, `SELECT x1.value FROM x_vm AS x1, x_vm AS x2, y WHERE x1.id = x2.id AND x2.id = y.i`)
	p := n.(*Project)
	mj, ok := p.Input.(*MultiJoin)
	if !ok {
		t.Fatalf("input is %T", p.Input)
	}
	if len(mj.Inputs) != 3 || len(mj.Conjuncts) != 2 {
		t.Fatalf("multijoin %d inputs %d conjuncts", len(mj.Inputs), len(mj.Conjuncts))
	}
	// Conjunct columns refer to the concatenated schema (x1: 0-1, x2: 2-3, y: 4-5).
	used := ColsUsed(mj.Conjuncts[0])
	if len(used) != 2 || used[0] != 0 || used[1] != 2 {
		t.Fatalf("conjunct 0 uses %v", used)
	}
}

func TestBuildDimensionInference(t *testing.T) {
	cat := testCatalog(t)
	// The paper's §4.2 example: output must be MATRIX[1000][10000].
	n := buildQuery(t, cat, "SELECT matrix_multiply(u_matrix, v_matrix) AS p FROM u, v")
	f := n.Schema()[0]
	if f.T.String() != "MATRIX[1000][10000]" {
		t.Fatalf("inferred type %s", f.T)
	}
}

func TestBuildShapeMismatchCompileError(t *testing.T) {
	cat := testCatalog(t)
	// The paper's §3.1 example: MATRIX[10][10] times VECTOR[100] must fail.
	err := buildErr(t, cat, "SELECT matrix_vector_multiply(m.mat, m.vec) AS res FROM m")
	if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("error %v", err)
	}
	// And with VECTOR[10] it compiles to VECTOR[10].
	n := buildQuery(t, cat, "SELECT matrix_vector_multiply(m2.mat, m2.vec) AS res FROM m2")
	if got := n.Schema()[0].T.String(); got != "VECTOR[10]" {
		t.Fatalf("result type %s", got)
	}
}

// TestBadCallSameErrorEveryScope checks that one ill-typed call reports one
// error wherever it is compiled: a plain item, and a grouped query's item,
// HAVING and ORDER BY, where its arguments are group columns.
func TestBadCallSameErrorEveryScope(t *testing.T) {
	cat := testCatalog(t)
	want := buildErr(t, cat, "SELECT inner_product(value, id) FROM x_vm").Error()
	if !strings.HasPrefix(want, "plan: inner_product(VECTOR[], INTEGER): ") {
		t.Fatalf("plain error %q does not name the argument types", want)
	}
	for _, src := range []string{
		"SELECT inner_product(value, id) FROM x_vm GROUP BY value, id",
		"SELECT id FROM x_vm GROUP BY value, id HAVING inner_product(value, id) > 0",
		"SELECT id FROM x_vm GROUP BY value, id ORDER BY inner_product(value, id)",
	} {
		if got := buildErr(t, cat, src).Error(); got != want {
			t.Errorf("%s:\n got %q\nwant %q", src, got, want)
		}
	}
}

func TestBuildVectorArithmetic(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT x1.value - x2.value AS d FROM x_vm AS x1, x_vm AS x2")
	if got := n.Schema()[0].T.String(); got != "VECTOR[]" {
		t.Fatalf("difference type %s", got)
	}
	// Scalar*vector broadcast.
	n = buildQuery(t, cat, "SELECT value * 2 AS d FROM x_vm")
	if got := n.Schema()[0].T.String(); got != "VECTOR[]" {
		t.Fatalf("broadcast type %s", got)
	}
}

func TestBuildAggregateGram(t *testing.T) {
	cat := testCatalog(t)
	// Vector-based Gram matrix (paper, experiments).
	n := buildQuery(t, cat, "SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x")
	p := n.(*Project)
	agg, ok := p.Input.(*Agg)
	if !ok {
		t.Fatalf("input is %T", p.Input)
	}
	if len(agg.GroupBy) != 0 || len(agg.Aggs) != 1 {
		t.Fatalf("agg %d groups %d calls", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].Spec.Name != "sum" {
		t.Fatalf("agg spec %s", agg.Aggs[0].Spec.Name)
	}
	if got := n.Schema()[0].T.String(); got != "MATRIX[][]" {
		t.Fatalf("gram type %s", got)
	}
}

func TestBuildTupleGramGrouping(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, `SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
		FROM xt AS x1, xt AS x2
		WHERE x1.row_index = x2.row_index
		GROUP BY x1.col_index, x2.col_index`)
	p := n.(*Project)
	agg := p.Input.(*Agg)
	if len(agg.GroupBy) != 2 || len(agg.Aggs) != 1 {
		t.Fatalf("agg shape %d/%d", len(agg.GroupBy), len(agg.Aggs))
	}
	if got := n.Schema().String(); got != "(col_index INTEGER, col_index INTEGER, sum DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
}

func TestBuildAggregateDedup(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT SUM(y_i), SUM(y_i) + 1 AS plus FROM y")
	agg := n.(*Project).Input.(*Agg)
	if len(agg.Aggs) != 1 {
		t.Fatalf("aggregate deduplication failed: %d calls", len(agg.Aggs))
	}
}

func TestBuildCountStar(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT COUNT(*) FROM y")
	agg := n.(*Project).Input.(*Agg)
	if agg.Aggs[0].Input != nil {
		t.Fatal("COUNT(*) should have nil input")
	}
	if n.Schema()[0].T != types.TInt {
		t.Fatalf("count type %v", n.Schema()[0].T)
	}
}

func TestBuildGroupByValidation(t *testing.T) {
	cat := testCatalog(t)
	// Naked column not in GROUP BY.
	buildErr(t, cat, "SELECT i, SUM(y_i) FROM y GROUP BY y_i")
	// SELECT * with grouping.
	buildErr(t, cat, "SELECT * FROM y GROUP BY i")
	// Aggregate of aggregate.
	buildErr(t, cat, "SELECT SUM(COUNT(*)) FROM y")
	// Aggregate in WHERE.
	buildErr(t, cat, "SELECT i FROM y WHERE SUM(y_i) > 0")
}

func TestBuildHaving(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT i, SUM(y_i) FROM y GROUP BY i HAVING SUM(y_i) > 10")
	p := n.(*Project)
	f, ok := p.Input.(*Filter)
	if !ok {
		t.Fatalf("input is %T, want Filter(Agg)", p.Input)
	}
	if _, ok := f.Input.(*Agg); !ok {
		t.Fatalf("filter input is %T", f.Input)
	}
}

func TestBuildVectorizeQuery(t *testing.T) {
	cat := testCatalog(t)
	// Paper §3.3.
	n := buildQuery(t, cat, "SELECT VECTORIZE(label_scalar(y_i, i)) AS v FROM y")
	if got := n.Schema()[0].T.String(); got != "VECTOR[]" {
		t.Fatalf("vectorize type %s", got)
	}
}

func TestBuildViewExpansion(t *testing.T) {
	cat := testCatalog(t)
	stmt, _ := sqlparse.Parse(`CREATE VIEW vecs (vec, r) AS
		SELECT VECTORIZE(label_scalar(value, col_index)) AS vec, row_index
		FROM xt GROUP BY row_index`)
	cv := stmt.(*sqlparse.CreateView)
	if err := cat.CreateView(&catalog.ViewMeta{Name: cv.Name, Cols: cv.Cols, Query: cv.Query}); err != nil {
		t.Fatal(err)
	}
	n := buildQuery(t, cat, "SELECT ROWMATRIX(label_vector(vec, r)) AS m FROM vecs")
	if got := n.Schema()[0].T.String(); got != "MATRIX[][]" {
		t.Fatalf("rowmatrix type %s", got)
	}
	// View column mismatch errors.
	if err := cat.CreateView(&catalog.ViewMeta{Name: "badv", Cols: []string{"only_one"}, Query: cv.Query}); err != nil {
		t.Fatal(err)
	}
	buildErr(t, cat, "SELECT only_one FROM badv")
}

func TestBuildSubquery(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, `SELECT s.total FROM (SELECT SUM(y_i) AS total FROM y) AS s`)
	if got := n.Schema().String(); got != "(total DOUBLE)" {
		t.Fatalf("schema %s", got)
	}
}

func TestBuildNameResolutionErrors(t *testing.T) {
	cat := testCatalog(t)
	buildErr(t, cat, "SELECT nosuch FROM y")
	buildErr(t, cat, "SELECT y.nosuch FROM y")
	buildErr(t, cat, "SELECT i FROM nosuchtable")
	// Ambiguous unqualified reference.
	buildErr(t, cat, "SELECT id FROM x_vm AS a, x_vm AS b")
	// Duplicate alias.
	buildErr(t, cat, "SELECT 1 FROM y AS a, x_vm AS a")
	// WHERE must be boolean.
	buildErr(t, cat, "SELECT i FROM y WHERE i + 1")
	// Unknown function.
	buildErr(t, cat, "SELECT frobnicate(i) FROM y")
}

func TestBuildOrderByAndLimit(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT i, y_i FROM y ORDER BY y_i DESC, 1 LIMIT 3")
	lim, ok := n.(*Limit)
	if !ok {
		t.Fatalf("root %T", n)
	}
	srt, ok := lim.Input.(*Sort)
	if !ok {
		t.Fatalf("limit input %T", lim.Input)
	}
	if len(srt.Keys) != 2 || !srt.Keys[0].Desc || srt.Keys[0].Col != 1 || srt.Keys[1].Col != 0 {
		t.Fatalf("keys %+v", srt.Keys)
	}
	// ORDER BY a non-projected expression appends a hidden column and strips it.
	n = buildQuery(t, cat, "SELECT i FROM y ORDER BY y_i")
	if got := n.Schema().String(); got != "(i INTEGER)" {
		t.Fatalf("schema with hidden order key: %s", got)
	}
	buildErr(t, cat, "SELECT i FROM y ORDER BY 5")
}

func TestBuildNoFrom(t *testing.T) {
	cat := testCatalog(t)
	n := buildQuery(t, cat, "SELECT 1 + 2 AS three")
	p := n.(*Project)
	if _, ok := p.Input.(*OneRow); !ok {
		t.Fatalf("input %T", p.Input)
	}
	v, err := EvalRow(p.Exprs[0], nil)
	if err != nil || !v.Equal(value.Int(3)) {
		t.Fatalf("eval %v %v", v, err)
	}
}

func TestBuildIntegerDivisionBlocking(t *testing.T) {
	cat := testCatalog(t)
	// The paper's blocking predicate: x.id/1000 = ind.mi (integer division).
	n := buildQuery(t, cat, "SELECT id/1000 AS blk FROM x_vm")
	if n.Schema()[0].T != types.TInt {
		t.Fatalf("blk type %v", n.Schema()[0].T)
	}
}
