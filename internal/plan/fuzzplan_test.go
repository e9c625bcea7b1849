package plan_test

import (
	"os"
	"testing"

	"relalg/internal/catalog"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
)

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

// FuzzPlan parses SQL text, seeded with the statements of
// testdata/fuzzplan_seeds.sql; a SELECT that builds against the fuzz catalog
// is optimized with the rewrites on. Nothing may panic, and the optimized
// plan rebuilt node by node must explain identically.
func FuzzPlan(f *testing.F) {
	src, err := os.ReadFile("testdata/fuzzplan_seeds.sql")
	if err != nil {
		f.Fatal(err)
	}
	seeds, err := sqlparse.Split(string(src))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Text)
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
