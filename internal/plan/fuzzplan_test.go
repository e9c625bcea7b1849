package plan_test

import (
	"testing"

	"relalg/internal/catalog"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
)

// fuzzPlanSeeds are the paper's and the workloads' SELECTs, written against
// the fuzz catalog's two tables, plus one query for each rewrite rule.
var fuzzPlanSeeds = []string{
	// Gram matrix: tuple, vector and block layouts (paper Fig. 1).
	`SELECT x1.i, x2.i, SUM(x1.value * x2.value) FROM x AS x1, x AS x2 WHERE x1.id = x2.id GROUP BY x1.i, x2.i`,
	`SELECT SUM(outer_product(x.vec, x.vec)) FROM x`,
	`SELECT SUM(matrix_multiply(trans_matrix(x.m), x.m)) FROM x`,
	`SELECT ind.mi AS mi, ROWMATRIX(label_vector(x.vec, x.id - ind.mi*3)) AS m
		FROM x, (SELECT id AS mi FROM y) AS ind WHERE x.id / 3 = ind.mi GROUP BY ind.mi`,
	// Linear regression (paper Fig. 2).
	`SELECT x.i, SUM(x.value * y.y_i) FROM x, y WHERE x.id = y.i GROUP BY x.i`,
	`SELECT matrix_vector_multiply(SUM(outer_product(x.vec, x.vec)), SUM(x.vec * y.y_i)) FROM x, y WHERE x.id = y.i`,
	`SELECT ind.mi AS mi, VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*3)) AS v
		FROM y, (SELECT id AS mi FROM x) AS ind WHERE y.i / 3 = ind.mi GROUP BY ind.mi`,
	// Distance (paper Fig. 3): cross join, per-pair builtins, max of mins.
	`SELECT a.id AS id, MIN(inner_product(matrix_vector_multiply(outer_product(b.vec, b.vec), a.vec), a.vec)) AS dist
		FROM x AS a, y AS b WHERE a.id <> b.id GROUP BY a.id`,
	`SELECT d.id, d.dist FROM (SELECT id, MIN(value) AS dist FROM x GROUP BY id) AS d,
		(SELECT MAX(y_i) AS top FROM y) AS mm WHERE d.dist = mm.top`,
	`SELECT id1, MIN(row_mins(dm + identity_matrix(2) * 1e300)) AS mins
		FROM (SELECT x.id AS id1, matrix_multiply(x.m, trans_matrix(y.m)) AS dm FROM x, y) AS p GROUP BY id1`,
	`SELECT x.id * 2 + arg_max(x.vec), max_vector(min_pairwise(x.vec, y.vec)) FROM x, y WHERE x.id = y.id`,
	// Served statements: grouped, point and wide reads.
	`SELECT i, COUNT(*) AS n, SUM(value) AS s FROM x GROUP BY i ORDER BY i`,
	`SELECT SUM(outer_product(vec, vec)) FROM x WHERE i < 8`,
	`SELECT id, vec FROM x WHERE i = 3 ORDER BY id LIMIT 10`,
	// Subqueries, HAVING, ORDER BY keys, three-way joins, no FROM.
	`SELECT id FROM x WHERE value = (SELECT MAX(y_i) FROM y WHERE y_i < (SELECT AVG(value) FROM x))`,
	`SELECT i, COUNT(*) FROM x GROUP BY i HAVING SUM(value) > 1 ORDER BY 2 DESC, i`,
	`SELECT x.id, y.id FROM x, y, x AS z WHERE x.id = z.i AND y.i = z.id AND x.value + y.y_i > z.value`,
	`SELECT 1 + 2 * 3, NOT TRUE, -4.5, 'a', NULL`,
	// One query per rewrite rule.
	`SELECT trans_matrix(trans_matrix(m)) FROM x`,
	`SELECT matrix_multiply(col_matrix(vec), row_matrix(vec)) FROM x`,
	`SELECT matrix_multiply(matrix_multiply(x.m, y.m), matrix_multiply(x.m, y.m)) FROM x, y`,
	`SELECT trace(SUM(x.m)), diag(SUM(y.m)) FROM x, y WHERE x.id = y.id`,
	`SELECT a, b FROM (SELECT id AS a, value * 2 AS b FROM x) AS d WHERE a > 3`,
	`SELECT inner_product(matrix_vector_multiply(outer_product(vec, vec), vec), vec),
		sum_vector(matrix_vector_multiply(outer_product(vec, vec), vec)) FROM x`,
}

// fuzzPlanCatalog is a small fixed catalog: two tables holding each column
// type the paper's queries use.
func fuzzPlanCatalog(f *testing.F) *catalog.Catalog {
	cols := func(d string) catalog.Schema {
		return catalog.Schema{Cols: []catalog.Column{
			{Name: "id", Type: types.TInt},
			{Name: "i", Type: types.TInt},
			{Name: d, Type: types.TDouble},
			{Name: "vec", Type: types.TVector(types.KnownDim(3))},
			{Name: "m", Type: types.TMatrix(types.KnownDim(2), types.KnownDim(2))},
		}}
	}
	cat := catalog.New()
	for _, meta := range []*catalog.TableMeta{
		catalog.NewTableMeta("x", cols("value"), 1000),
		catalog.NewTableMeta("y", cols("y_i"), 30),
	} {
		if err := cat.CreateTable(meta); err != nil {
			f.Fatal(err)
		}
	}
	return cat
}

// copyExpr rebuilds every expression node that holds a column reference.
func copyExpr(e plan.Expr) (plan.Expr, error) {
	if c, ok := e.(*plan.Col); ok {
		return &plan.Col{Idx: c.Idx, Name: c.Name, T: c.T}, nil
	}
	return plan.MapArgs(e, copyExpr)
}

// copyPlan rebuilds every node of n with plan.Rebuild.
func copyPlan(n plan.Node) (plan.Node, error) {
	var kids []plan.Node
	for _, c := range n.Children() {
		k, err := copyPlan(c)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	var exprs []plan.Expr
	for _, e := range plan.NodeExprs(n) {
		ce, err := copyExpr(e)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, ce)
	}
	return plan.Rebuild(n, kids, exprs)
}

// FuzzPlan parses SQL text; a SELECT that builds against the fuzz catalog
// is optimized with the rewrites on. Nothing may panic, and the optimized
// plan rebuilt node by node must explain identically.
func FuzzPlan(f *testing.F) {
	for _, s := range fuzzPlanSeeds {
		f.Add(s)
	}
	cat := fuzzPlanCatalog(f)
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		sel, ok := stmt.(*sqlparse.Select)
		if !ok {
			return
		}
		logical, err := plan.NewBuilder(cat).BuildSelect(sel)
		if err != nil {
			return
		}
		optimized, err := opt.New(opt.DefaultOptions()).Optimize(logical)
		if err != nil {
			return
		}
		same, err := copyPlan(optimized)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if got, want := plan.Explain(same), plan.Explain(optimized); got != want {
			t.Fatalf("rebuilt plan\n%s\nwant\n%s", got, want)
		}
	})
}
