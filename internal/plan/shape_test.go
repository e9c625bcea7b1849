package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strings"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/types"
	"relalg/internal/value"
)

// shapeFixture returns one node of every kind and one expression of every
// kind, each with a distinct child or expression in every slot. Slot names
// have a fixed width, so none is a prefix of another.
func shapeFixture(t *testing.T) ([]Node, []Expr) {
	t.Helper()
	meta := catalog.NewTableMeta("t", catalog.Schema{Cols: []catalog.Column{{Name: "a", Type: types.TInt}}}, 5)
	out := Schema{{Name: "a", T: types.TInt}}
	leaf := 0
	scan := func() Node {
		leaf++
		return &Scan{Table: meta, Alias: fmt.Sprintf("s%02d", leaf), Out: out}
	}
	slot := 0
	col := func() Expr {
		slot++
		return &Col{Idx: 0, Name: fmt.Sprintf("e%02d", slot), T: types.TInt}
	}
	cols := func(n int) []Expr {
		es := make([]Expr, n)
		for i := range es {
			es[i] = col()
		}
		return es
	}
	count, _ := builtins.LookupAgg("count")
	sum, _ := builtins.LookupAgg("sum")
	abs, _ := builtins.Lookup("abs")
	nodes := []Node{
		scan(),
		&OneRow{},
		&Project{Input: scan(), Exprs: cols(2), Out: Schema{out[0], out[0]}},
		&Filter{Input: scan(), Pred: col()},
		&MultiJoin{Inputs: []Node{scan(), scan(), scan()}, Conjuncts: cols(2), Out: out},
		&Join{L: scan(), R: scan(), LKeys: cols(2), RKeys: cols(2), Residual: cols(2), Out: out},
		&Cross{L: scan(), R: scan(), Residual: cols(2), Out: out},
		&Agg{Input: scan(), GroupBy: cols(2), Out: out, Aggs: []AggCall{
			{Spec: count, T: types.TInt}, {Spec: sum, Input: col(), T: types.TInt}, {Spec: sum, Input: col(), T: types.TInt},
		}},
		&Bound{Input: scan(), Rows: 7, Out: out},
		&Sort{Input: scan(), Keys: []OrderKey{{Col: 0, Desc: true}}},
		&Limit{Input: scan(), N: 3},
	}
	exprs := []Expr{
		col(),
		&Const{V: value.Int(4), T: types.TInt},
		&ScalarSubquery{Plan: scan(), T: types.TInt},
		&Binary{Op: "+", Kind: BinArith, L: col(), R: col(), T: types.TInt},
		&Not{E: col()},
		&Neg{E: col(), T: types.TInt},
		&Call{Fn: abs, Args: cols(3), T: types.TInt},
	}
	return nodes, exprs
}

// kindsIn lists the types of this package's non-test files that have the
// given method: every node kind has Children, every expression kind Type.
func kindsIn(t *testing.T, method string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["plan"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != method {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			kinds = append(kinds, "*plan."+recv.(*ast.Ident).Name)
		}
	}
	slices.Sort(kinds)
	return kinds
}

// typeNames returns the sorted dynamic type names of xs.
func typeNames[T any](xs []T) []string {
	var names []string
	for _, x := range xs {
		names = append(names, fmt.Sprintf("%T", x))
	}
	slices.Sort(names)
	return names
}

// exprSlots counts the Expr values held in v's fields, reflectively, so the
// count does not trust the shape code it checks.
func exprSlots(v any) int {
	n := 0
	rv := reflect.ValueOf(v).Elem()
	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	var visit func(f reflect.Value)
	visit = func(f reflect.Value) {
		switch {
		case f.Type() == exprType:
			if !f.IsNil() {
				n++
			}
		case f.Kind() == reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				visit(f.Index(i))
			}
		case f.Kind() == reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				visit(f.Field(i))
			}
		}
	}
	visit(rv)
	return n
}

// TestShapeComplete pins that NodeExprs, Rebuild, Args and MapArgs know every
// field of every kind: an identity rebuild renders the same, and a map that
// replaces every child and expression visits each slot exactly once and puts
// each replacement where the original was.
func TestShapeComplete(t *testing.T) {
	nodes, exprs := shapeFixture(t)
	if got, want := typeNames(nodes), kindsIn(t, "Children"); !slices.Equal(got, want) {
		t.Fatalf("fixture node kinds %v, package has %v", got, want)
	}
	if got, want := typeNames(exprs), kindsIn(t, "Type"); !slices.Equal(got, want) {
		t.Fatalf("fixture expression kinds %v, package has %v", got, want)
	}

	for _, n := range nodes {
		same, err := Rebuild(n, n.Children(), NodeExprs(n))
		if err != nil {
			t.Fatal(err)
		}
		if Explain(same) != Explain(n) {
			t.Errorf("%T: identity rebuild\n%s\nwant\n%s", n, Explain(same), Explain(n))
		}
		if got, want := len(NodeExprs(n)), exprSlots(n); got != want {
			t.Errorf("%T: NodeExprs has %d slots, the node holds %d", n, got, want)
		}
		seen := map[string]int{}
		mapped, err := MapNode(n,
			func(c Node) (Node, error) {
				s := c.(*Scan)
				seen[s.Alias]++
				return &Scan{Table: s.Table, Alias: "new_" + s.Alias, Out: s.Out}, nil
			},
			func(e Expr) (Expr, error) {
				c := e.(*Col)
				seen[c.Name]++
				return &Col{Idx: c.Idx, Name: "new_" + c.Name, T: c.T}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for slot, k := range seen {
			if k != 1 {
				t.Errorf("%T: slot %s visited %d times", n, slot, k)
			}
		}
		if len(seen) != len(n.Children())+exprSlots(n) {
			t.Errorf("%T: visited %d slots, want %d", n, len(seen), len(n.Children())+exprSlots(n))
		}
		want := Explain(n)
		for slot := range seen {
			want = strings.Replace(want, slot, "new_"+slot, 1)
		}
		if got := Explain(mapped); got != want {
			t.Errorf("%T: mapped\n%s\nwant\n%s", n, got, want)
		}
	}

	for _, e := range exprs {
		if got := withArgs(e, Args(e)).String(); got != e.String() {
			t.Errorf("%T: identity rebuild %s, want %s", e, got, e)
		}
		if got, want := len(Args(e)), exprSlots(e); got != want {
			t.Errorf("%T: Args has %d, the expression holds %d", e, got, want)
		}
		seen := map[string]int{}
		mapped, err := MapArgs(e, func(a Expr) (Expr, error) {
			c := a.(*Col)
			seen[c.Name]++
			return &Col{Idx: c.Idx, Name: "new_" + c.Name, T: c.T}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := e.String()
		for slot, k := range seen {
			if k != 1 {
				t.Errorf("%T: argument %s visited %d times", e, slot, k)
			}
			want = strings.Replace(want, slot, "new_"+slot, 1)
		}
		if len(seen) != exprSlots(e) {
			t.Errorf("%T: visited %d arguments, want %d", e, len(seen), exprSlots(e))
		}
		if got := mapped.String(); got != want {
			t.Errorf("%T: mapped %s, want %s", e, got, want)
		}
	}
}
