package plan

import (
	"math"
	"strings"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

func intCol(i int) *Col { return &Col{Idx: i, Name: "c", T: types.TInt} }
func boolConst(b bool) *Const {
	return &Const{V: value.Bool(b), T: types.TBool}
}

// evalCase is one expression over one row and the value it must give.
type evalCase struct {
	e    Expr
	row  value.Row
	want value.Value
}

// windows are the three ways a row is evaluated: alone (EvalRow); as lane 0
// of a typed window, whose lane 1 repeats it, so a column of non-NULL values
// is typed and the vectorized loops run; and as lane 0 of a generic window,
// whose lane 1 is all NULL, so every column is generic and the lane goes
// through the scalar builtins.
func windows(ec *EvalCtx, e Expr, row value.Row) map[string]func() (value.Value, error) {
	nulls := make(value.Row, len(row))
	lane0 := func(src rowsSource) func() (value.Value, error) {
		return func() (value.Value, error) {
			c, err := EvalVec(ec, e, src, nil)
			if err != nil {
				return value.Null(), err
			}
			return c.Value(0), nil
		}
	}
	return map[string]func() (value.Value, error){
		"row":     func() (value.Value, error) { return EvalRow(ec, e, row) },
		"typed":   lane0(rowsSource{row, row}),
		"generic": lane0(rowsSource{row, nulls}),
	}
}

// checkEval checks every case in all three windows, bit for bit.
func checkEval(t *testing.T, cases []evalCase) {
	t.Helper()
	for _, c := range cases {
		for name, eval := range windows(&EvalCtx{}, c.e, c.row) {
			got, err := eval()
			if err != nil {
				t.Errorf("%s over %v (%s window): %v", c.e, c.row, name, err)
			} else if !sameBits(got, c.want) {
				t.Errorf("%s over %v (%s window) = %v, want %v", c.e, c.row, name, got, c.want)
			}
		}
	}
}

// checkEvalErr checks that e fails over row in all three windows.
func checkEvalErr(t *testing.T, e Expr, row value.Row) {
	t.Helper()
	for name, eval := range windows(&EvalCtx{}, e, row) {
		if v, err := eval(); err == nil {
			t.Errorf("%s over %v (%s window) = %v, want an error", e, row, name, v)
		}
	}
}

func TestColEval(t *testing.T) {
	row := value.Row{value.Int(7), value.String_("x")}
	checkEval(t, []evalCase{
		{intCol(0), row, value.Int(7)},
		{&Col{Idx: 1, T: types.TString}, row, value.String_("x")},
		{intCol(0), value.Row{value.Null()}, value.Null()},
	})
	checkEvalErr(t, intCol(5), row)
	checkEvalErr(t, intCol(-1), row)
	if intCol(0).Type() != types.TInt {
		t.Fatal("type lost")
	}
}

func TestBinaryArithNullPropagation(t *testing.T) {
	e := &Binary{Op: "+", Kind: BinArith, L: intCol(0), R: intCol(1), T: types.TInt}
	div := &Binary{Op: "/", Kind: BinArith, L: intCol(0), R: intCol(1), T: types.TInt}
	checkEval(t, []evalCase{
		{e, value.Row{value.Int(1), value.Null()}, value.Null()},
		{e, value.Row{value.Null(), value.Double(2)}, value.Null()},
		{e, value.Row{value.Int(1), value.Int(2)}, value.Int(3)},
		{e, value.Row{value.Int(1), value.Double(0.5)}, value.Double(1.5)},
		{div, value.Row{value.Int(7), value.Int(2)}, value.Int(3)},
		{div, value.Row{value.Int(7), value.Double(2)}, value.Double(3.5)},
		{div, value.Row{value.Double(1), value.Double(0)}, value.Double(math.Inf(1))},
	})
	checkEvalErr(t, div, value.Row{value.Int(1), value.Int(0)})
	checkEvalErr(t, e, value.Row{value.Int(1), value.String_("x")})
}

func TestBinaryCompareNullIsFalse(t *testing.T) {
	eq := &Binary{Op: "=", Kind: BinCompare, L: intCol(0), R: intCol(1), T: types.TBool}
	le := &Binary{Op: "<=", Kind: BinCompare, L: intCol(0), R: intCol(1), T: types.TBool}
	nan := value.Double(math.NaN())
	checkEval(t, []evalCase{
		{eq, value.Row{value.Int(1), value.Null()}, value.Bool(false)},
		{eq, value.Row{value.Int(2), value.Double(2)}, value.Bool(true)},
		{eq, value.Row{value.String_("a"), value.String_("a")}, value.Bool(true)},
		{le, value.Row{value.String_("b"), value.String_("a")}, value.Bool(false)},
		{le, value.Row{value.Bool(false), value.Bool(true)}, value.Bool(true)},
		// Ordering treats a NaN as equal to everything, unlike IEEE.
		{le, value.Row{nan, value.Int(1)}, value.Bool(true)},
		{eq, value.Row{nan, nan}, value.Bool(false)},
	})
	checkEvalErr(t, le, value.Row{value.String_("a"), value.Int(1)})
}

func TestBinaryLogic(t *testing.T) {
	and := &Binary{Op: "AND", Kind: BinLogic, L: intCol(0), R: intCol(1), T: types.TBool}
	or := &Binary{Op: "OR", Kind: BinLogic, L: intCol(0), R: intCol(1), T: types.TBool}
	tr, fa := value.Bool(true), value.Bool(false)
	checkEval(t, []evalCase{
		{and, value.Row{tr, fa}, fa},
		{and, value.Row{tr, tr}, tr},
		{or, value.Row{tr, fa}, tr},
		{or, value.Row{fa, fa}, fa},
		// NULL, and anything not a BOOLEAN, behaves as FALSE in logic.
		{or, value.Row{value.Null(), tr}, tr},
		{and, value.Row{value.Null(), tr}, fa},
		{or, value.Row{value.Int(1), fa}, fa},
		{&Binary{Op: "OR", Kind: BinLogic, L: &Const{V: value.Null(), T: types.TBool}, R: boolConst(true), T: types.TBool}, nil, tr},
	})
}

func TestNotAndNeg(t *testing.T) {
	not := &Not{E: intCol(0)}
	neg := &Neg{E: intCol(0), T: types.TInt}
	mat, _ := linalg.MatrixFromRows([][]float64{{1, 0}, {0, -1}})
	negZero := math.Copysign(0, -1)
	negMat, _ := linalg.MatrixFromRows([][]float64{{-1, negZero}, {negZero, 1}})
	checkEval(t, []evalCase{
		{not, value.Row{value.Bool(false)}, value.Bool(true)},
		{not, value.Row{value.Bool(true)}, value.Bool(false)},
		{not, value.Row{value.Null()}, value.Bool(true)},
		{not, value.Row{value.Int(1)}, value.Bool(true)},
		{neg, value.Row{value.Int(5)}, value.Int(-5)},
		{neg, value.Row{value.Double(2.5)}, value.Double(-2.5)},
		{neg, value.Row{value.Double(0)}, value.Double(negZero)},
		// Negating a labeled scalar drops the label.
		{neg, value.Row{value.LabeledScalar(2, 7)}, value.Double(-2)},
		{neg, value.Row{value.Vector(linalg.VectorOf(1, -2))}, value.Vector(linalg.VectorOf(-1, 2))},
		{neg, value.Row{value.Matrix(mat)}, value.Matrix(negMat)},
		// Negating NULL stays NULL.
		{neg, value.Row{value.Null()}, value.Null()},
	})
	// Negating a string is a runtime error.
	checkEvalErr(t, neg, value.Row{value.String_("x")})
}

func TestCallEvalAndNullShortCircuit(t *testing.T) {
	sqrt, _ := builtins.Lookup("sqrt")
	pow, _ := builtins.Lookup("pow")
	call := &Call{Fn: sqrt, Args: []Expr{&Col{Idx: 0, T: types.TDouble}}, T: types.TDouble}
	call2 := &Call{Fn: pow, Args: []Expr{intCol(0), intCol(1)}, T: types.TDouble}
	checkEval(t, []evalCase{
		{call, value.Row{value.Double(9)}, value.Double(3)},
		{call, value.Row{value.Int(16)}, value.Double(4)},
		{call, value.Row{value.Null()}, value.Null()},
		{call2, value.Row{value.Int(2), value.Int(10)}, value.Double(1024)},
		{call2, value.Row{value.Null(), value.Int(10)}, value.Null()},
	})
	checkEvalErr(t, call, value.Row{value.String_("x")})
}

func TestUnresolvedSubqueryFails(t *testing.T) {
	checkEvalErr(t, &ScalarSubquery{Plan: &OneRow{}, T: types.TInt}, nil)
}

func TestColsUsedAndRemap(t *testing.T) {
	fn, _ := builtins.Lookup("pow")
	e := &Binary{
		Op: "+", Kind: BinArith, T: types.TDouble,
		L: &Call{Fn: fn, Args: []Expr{&Col{Idx: 3, T: types.TDouble}, &Col{Idx: 1, T: types.TDouble}}, T: types.TDouble},
		R: &Neg{E: &Not{E: boolConst(true)}, T: types.TDouble},
	}
	used := ColsUsed(e)
	if len(used) != 2 || used[0] != 1 || used[1] != 3 {
		t.Fatalf("cols used %v", used)
	}
	remapped, err := Remap(e, map[int]int{1: 0, 3: 1})
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	used = ColsUsed(remapped)
	if len(used) != 2 || used[0] != 0 || used[1] != 1 {
		t.Fatalf("remapped cols %v", used)
	}
	// Remap reports a missing mapping as an error, not a panic.
	if _, err := Remap(e, map[int]int{1: 0}); err == nil {
		t.Fatal("Remap with missing mapping did not error")
	}
}

func TestExprStrings(t *testing.T) {
	fn, _ := builtins.Lookup("sqrt")
	cases := map[Expr]string{
		intCol(2): "#2:c",
		&Const{V: value.Double(1.5), T: types.TDouble}:               "1.5",
		&Binary{Op: "*", Kind: BinArith, L: intCol(0), R: intCol(1)}: "(#0:c * #1:c)",
		&Not{E: boolConst(true)}:                                     "NOT true",
		&Neg{E: intCol(0), T: types.TInt}:                            "-#0:c",
		&Call{Fn: fn, Args: []Expr{intCol(0)}, T: types.TDouble}:     "sqrt(#0:c)",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestExplainCoversAllNodes(t *testing.T) {
	meta := catalog.NewTableMeta("t", catalog.Schema{Cols: []catalog.Column{{Name: "a", Type: types.TInt}}}, 5)
	scan := &Scan{Table: meta, Alias: "x", Out: Schema{{Name: "a", T: types.TInt}}}
	spec, _ := builtins.LookupAgg("count")
	tree := &Limit{
		N: 3,
		Input: &Sort{
			Keys: []OrderKey{{Col: 0, Desc: true}},
			Input: &Project{
				Out:   Schema{{Name: "a", T: types.TInt}},
				Exprs: []Expr{intCol(0)},
				Input: &Filter{
					Pred: &Binary{Op: ">", Kind: BinCompare, L: intCol(0), R: &Const{V: value.Int(0), T: types.TInt}, T: types.TBool},
					Input: &Agg{
						GroupBy: []Expr{intCol(0)},
						Aggs:    []AggCall{{Spec: spec, T: types.TInt}},
						Out:     Schema{{Name: "a", T: types.TInt}, {Name: "n", T: types.TInt}},
						Input: &Join{
							L: scan, R: scan,
							LKeys: []Expr{intCol(0)}, RKeys: []Expr{intCol(0)},
							Residual: []Expr{boolConst(true)},
							Out:      Schema{{Name: "a", T: types.TInt}, {Name: "a", T: types.TInt}},
						},
					},
				},
			},
		},
	}
	text := Explain(tree)
	for _, want := range []string{"Limit 3", "Sort", "Project", "Filter", "Aggregate", "HashJoin", "Scan t AS x", "count(*)", "filter ["} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	// Cross, MultiJoin, OneRow branches.
	cross := &Cross{L: scan, R: scan, Residual: []Expr{boolConst(true)}, Out: Schema{}}
	if !strings.Contains(Explain(cross), "CrossJoin") {
		t.Error("cross join missing")
	}
	mj := &MultiJoin{Inputs: []Node{scan, &OneRow{}}, Conjuncts: []Expr{boolConst(true)}, Out: Schema{}}
	text = Explain(mj)
	if !strings.Contains(text, "MultiJoin") || !strings.Contains(text, "OneRow") {
		t.Errorf("multijoin explain:\n%s", text)
	}
}

func TestSchemaHelpersPlan(t *testing.T) {
	s := Schema{{Name: "a", T: types.TInt}, {Name: "b", T: types.TVector(types.KnownDim(3))}}
	if s.String() != "(a INTEGER, b VECTOR[3])" {
		t.Fatalf("schema %s", s)
	}
	ts := s.Types()
	if len(ts) != 2 || ts[1].String() != "VECTOR[3]" {
		t.Fatalf("types %v", ts)
	}
}
