package bench

import (
	"fmt"
	"strings"

	"relalg/internal/catalog"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
)

// PaperSchemaCatalog builds the exact §4.1 schema and statistics:
//
//	R (r_rid INTEGER, r_matrix MATRIX[10][100000])   100 rows
//	S (s_sid INTEGER, s_matrix MATRIX[100000][100])  100 rows
//	T (t_rid INTEGER, t_sid INTEGER)                 1000 rows
func PaperSchemaCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	add := func(name string, rows int64, cols ...catalog.Column) error {
		return cat.CreateTable(catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, rows))
	}
	if err := add("r", 100,
		catalog.Column{Name: "r_rid", Type: types.TInt},
		catalog.Column{Name: "r_matrix", Type: types.TMatrix(types.KnownDim(10), types.KnownDim(100000))}); err != nil {
		return nil, err
	}
	if err := add("s", 100,
		catalog.Column{Name: "s_sid", Type: types.TInt},
		catalog.Column{Name: "s_matrix", Type: types.TMatrix(types.KnownDim(100000), types.KnownDim(100))}); err != nil {
		return nil, err
	}
	if err := add("t", 1000,
		catalog.Column{Name: "t_rid", Type: types.TInt},
		catalog.Column{Name: "t_sid", Type: types.TInt}); err != nil {
		return nil, err
	}
	cat.SetDistinct("r", "r_rid", 100)
	cat.SetDistinct("s", "s_sid", 100)
	cat.SetDistinct("t", "t_rid", 100)
	cat.SetDistinct("t", "t_sid", 100)
	return cat, nil
}

// PaperOptimizerQuery is the §4.1 three-way join.
const PaperOptimizerQuery = `SELECT matrix_multiply(r_matrix, s_matrix)
FROM r, s, t
WHERE r_rid = t_rid AND s_sid = t_sid`

// OptimizerDemo renders the §4.1 worked example: the plan chosen with the
// full linear-algebra-aware optimizer, with size-aware costing disabled
// (ablation A1), and with eager projection disabled (ablation A2).
func OptimizerDemo() (string, error) {
	cat, err := PaperSchemaCatalog()
	if err != nil {
		return "", err
	}
	stmt, err := sqlparse.Parse(PaperOptimizerQuery)
	if err != nil {
		return "", err
	}
	sel := stmt.(*sqlparse.Select)

	var b strings.Builder
	b.WriteString("Paper §4.1 example: SELECT matrix_multiply(r_matrix, s_matrix) FROM R, S, T\n")
	b.WriteString("                    WHERE r_rid = t_rid AND s_sid = t_sid\n")
	b.WriteString("R: 100 x MATRIX[10][100000] (80 MB each)   S: 100 x MATRIX[100000][100]   T: 1000 pairs\n\n")

	cases := []struct {
		title string
		opts  opt.Options
	}{
		{"LA-aware optimizer (paper behaviour)", opt.DefaultOptions()},
		{"Ablation A1: size-blind costing", func() opt.Options {
			o := opt.DefaultOptions()
			o.SizeAwareCosting = false
			return o
		}()},
		{"Ablation A2: no eager projection", func() opt.Options {
			o := opt.DefaultOptions()
			o.EagerProjection = false
			return o
		}()},
	}
	for _, c := range cases {
		logical, err := plan.NewBuilder(cat).BuildSelect(sel)
		if err != nil {
			return "", err
		}
		optimized, err := opt.New(c.opts).Optimize(logical)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", c.title, plan.Explain(optimized))
	}
	b.WriteString("The paper's winning plan pi(S x R) |X| T appears only with LA-aware costing\n")
	b.WriteString("AND eager projection: the 10,000-row cross product carries 8 KB products\n")
	b.WriteString("(~80 MB total) instead of joining 80 GB of raw matrices through T.\n")
	return b.String(), nil
}
