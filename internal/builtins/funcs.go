// Package builtins implements the paper's built-in functions over
// LABELED_SCALAR, VECTOR and MATRIX values (22+ functions, §3.1), the
// overloaded arithmetic of §3.2, and the aggregates — including the three
// conversion aggregates VECTORIZE, ROWMATRIX and COLMATRIX of §3.3 — with
// mergeable states so the executor can pre-aggregate before shuffles.
//
// Every function carries a templated type signature (§4.2); the planner uses
// it both for compile-time shape checking and to tell the optimizer the
// exact size of intermediate linear-algebra objects.
//
// Labels are zero-based indexes: VECTORIZE places a LABELED_SCALAR with
// label i at position i and sizes the result to the largest label plus one
// (so labels 0..999 produce a 1000-entry vector, matching the paper's
// blocking example where positions are computed as x.id - mi*1000).
package builtins

import (
	"fmt"
	"math"
	"sort"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

// Builtin is one scalar (non-aggregate) built-in function. Eval defines it
// one lane at a time. EvalCol, when set, is its column form over a window of n
// lanes whose argument columns are all typed: it returns a column whose lanes
// named by sel (all n when sel is nil) hold what Eval returns for them, or nil
// when it does not take the columns' kinds, leaving the window to Eval.
type Builtin struct {
	Name    string
	Sig     types.Signature
	Eval    func(args []value.Value) (value.Value, error)
	EvalCol func(args []*value.Col, n int, sel []int32) (*value.Col, error)
}

// registry maps lower-case names to builtins.
var registry = map[string]*Builtin{}

// Lookup finds a scalar built-in by (lower-case) name.
func Lookup(name string) (*Builtin, bool) {
	b, ok := registry[name]
	return b, ok
}

// Names returns all registered scalar built-in names, sorted (for error
// messages and deterministic listings).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// register records b, reporting a duplicate name as an error so callers that
// extend the registry at runtime can handle the collision.
func register(b *Builtin) error {
	if _, dup := registry[b.Name]; dup {
		return fmt.Errorf("builtins: duplicate registration of %s", b.Name)
	}
	registry[b.Name] = b
	return nil
}

// mustRegister is the init-time wrapper: the package's own function table is
// fixed at compile time, so a duplicate there is a programming error.
func mustRegister(b *Builtin) {
	if err := register(b); err != nil {
		panic(err)
	}
}

// Shorthand constructors for signature templates.
func vecT(d string) types.T    { return types.TVector(types.VarDim(d)) }
func matT(r, c string) types.T { return types.TMatrix(types.VarDim(r), types.VarDim(c)) }

func argVec(args []value.Value, i int) (*linalg.Vector, error) {
	if args[i].Kind != value.KindVector {
		return nil, fmt.Errorf("builtins: argument %d is %s, want VECTOR", i+1, args[i].Kind)
	}
	return args[i].Vec, nil
}

func argMat(args []value.Value, i int) (*linalg.Matrix, error) {
	if args[i].Kind != value.KindMatrix {
		return nil, fmt.Errorf("builtins: argument %d is %s, want MATRIX", i+1, args[i].Kind)
	}
	return args[i].Mat, nil
}

func argDouble(args []value.Value, i int) (float64, error) {
	d, err := args[i].AsDouble()
	if err != nil {
		return 0, fmt.Errorf("builtins: argument %d: %v", i+1, err)
	}
	return d, nil
}

func argInt(args []value.Value, i int) (int64, error) {
	n, err := args[i].AsInt()
	if err != nil {
		return 0, fmt.Errorf("builtins: argument %d: %v", i+1, err)
	}
	return n, nil
}

func init() {
	// --- Matrix/vector products -------------------------------------------
	mustRegister(&Builtin{
		Name: "matrix_multiply",
		Sig:  types.Signature{Params: []types.T{matT("a", "b"), matT("b", "c")}, Result: matT("a", "c")},
		Eval: func(args []value.Value) (value.Value, error) {
			l, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			r, err := argMat(args, 1)
			if err != nil {
				return value.Null(), err
			}
			out, err := l.MulMat(r)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(out), nil
		},
	})
	mustRegister(&Builtin{
		Name: "matrix_vector_multiply",
		Sig:  types.Signature{Params: []types.T{matT("a", "b"), vecT("b")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			v, err := argVec(args, 1)
			if err != nil {
				return value.Null(), err
			}
			out, err := m.MulVec(v)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(out), nil
		},
	})
	mustRegister(&Builtin{
		Name: "vector_matrix_multiply",
		Sig:  types.Signature{Params: []types.T{vecT("a"), matT("a", "b")}, Result: vecT("b")},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			m, err := argMat(args, 1)
			if err != nil {
				return value.Null(), err
			}
			out, err := m.VecMul(v)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(out), nil
		},
	})
	mustRegister(&Builtin{
		Name: "inner_product",
		Sig:  types.Signature{Params: []types.T{vecT("a"), vecT("a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			a, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			b, err := argVec(args, 1)
			if err != nil {
				return value.Null(), err
			}
			d, err := a.Dot(b)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(d), nil
		},
		EvalCol: func(args []*value.Col, n int, sel []int32) (*value.Col, error) {
			if args[0].Kind != value.KindVector || args[1].Kind != value.KindVector {
				return nil, nil
			}
			out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
			if err := linalg.DotLanes(out.F, args[0].Vec, args[1].Vec, sel); err != nil {
				return nil, err
			}
			return out, nil
		},
	})
	mustRegister(&Builtin{
		Name: "outer_product",
		Sig:  types.Signature{Params: []types.T{vecT("a"), vecT("b")}, Result: matT("a", "b")},
		Eval: func(args []value.Value) (value.Value, error) {
			a, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			b, err := argVec(args, 1)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(a.Outer(b)), nil
		},
	})

	// --- Structural transforms --------------------------------------------
	mustRegister(&Builtin{
		Name: "trans_matrix",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: matT("b", "a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(m.Transpose()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "matrix_inverse",
		Sig:  types.Signature{Params: []types.T{matT("a", "a")}, Result: matT("a", "a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			inv, err := m.Inverse()
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(inv), nil
		},
	})
	mustRegister(&Builtin{
		Name: "diag",
		Sig:  types.Signature{Params: []types.T{matT("a", "a")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			d, err := m.Diag()
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(d), nil
		},
	})
	mustRegister(&Builtin{
		Name: "diag_matrix",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: matT("a", "a")},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(linalg.DiagMatrix(v)), nil
		},
	})
	mustRegister(&Builtin{
		Name: "row_matrix",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TMatrix(types.KnownDim(1), types.VarDim("a"))},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(v.AsRowMatrix()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "col_matrix",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TMatrix(types.VarDim("a"), types.KnownDim(1))},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Matrix(v.AsColMatrix()), nil
		},
	})

	// --- Labels and element access (§3.3) ----------------------------------
	mustRegister(&Builtin{
		Name: "label_scalar",
		Sig:  types.Signature{Params: []types.T{types.TDouble, types.TInt}, Result: types.TLabeledScalar},
		Eval: func(args []value.Value) (value.Value, error) {
			d, err := argDouble(args, 0)
			if err != nil {
				return value.Null(), err
			}
			l, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			return value.LabeledScalar(d, l), nil
		},
	})
	mustRegister(&Builtin{
		Name: "label_vector",
		Sig:  types.Signature{Params: []types.T{vecT("a"), types.TInt}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			l, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			return value.LabeledVector(v, l), nil
		},
	})
	mustRegister(&Builtin{
		Name: "get_scalar",
		Sig:  types.Signature{Params: []types.T{vecT("a"), types.TInt}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			i, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			if i < 0 || int(i) >= v.Len() {
				return value.Null(), fmt.Errorf("builtins: get_scalar index %d out of range [0,%d)", i, v.Len())
			}
			return value.Double(v.At(int(i))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "get_entry",
		Sig:  types.Signature{Params: []types.T{matT("a", "b"), types.TInt, types.TInt}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			i, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			j, err := argInt(args, 2)
			if err != nil {
				return value.Null(), err
			}
			if i < 0 || int(i) >= m.Rows || j < 0 || int(j) >= m.Cols {
				return value.Null(), fmt.Errorf("builtins: get_entry (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols)
			}
			return value.Double(m.At(int(i), int(j))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "get_row",
		Sig:  types.Signature{Params: []types.T{matT("a", "b"), types.TInt}, Result: vecT("b")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			i, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			if i < 0 || int(i) >= m.Rows {
				return value.Null(), fmt.Errorf("builtins: get_row %d out of range [0,%d)", i, m.Rows)
			}
			return value.Vector(m.RowVector(int(i))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "get_col",
		Sig:  types.Signature{Params: []types.T{matT("a", "b"), types.TInt}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			j, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			if j < 0 || int(j) >= m.Cols {
				return value.Null(), fmt.Errorf("builtins: get_col %d out of range [0,%d)", j, m.Cols)
			}
			return value.Vector(m.ColVector(int(j))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "get_label",
		Sig:  types.Signature{Params: []types.T{types.TAny}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			switch args[0].Kind {
			case value.KindLabeledScalar, value.KindVector:
				return value.Int(args[0].Label), nil
			}
			return value.Null(), fmt.Errorf("builtins: get_label of %s", args[0].Kind)
		},
	})

	// --- Shape introspection -------------------------------------------
	mustRegister(&Builtin{
		Name: "vector_size",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Int(int64(v.Len())), nil
		},
	})
	mustRegister(&Builtin{
		Name: "matrix_rows",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Int(int64(m.Rows)), nil
		},
	})
	mustRegister(&Builtin{
		Name: "matrix_cols",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Int(int64(m.Cols)), nil
		},
	})

	// --- Reductions ---------------------------------------------------
	mustRegister(&Builtin{
		Name: "sum_vector",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(v.Sum()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "sum_matrix",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(m.Sum()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "min_vector",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(v.Min()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "max_vector",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(v.Max()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "arg_min",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Int(int64(v.ArgMin())), nil
		},
	})
	mustRegister(&Builtin{
		Name: "arg_max",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TInt},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Int(int64(v.ArgMax())), nil
		},
	})
	mustRegister(&Builtin{
		Name: "trace",
		Sig:  types.Signature{Params: []types.T{matT("a", "a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			tr, err := m.Trace()
			if err != nil {
				return value.Null(), err
			}
			return value.Double(tr), nil
		},
	})
	mustRegister(&Builtin{
		Name: "norm2",
		Sig:  types.Signature{Params: []types.T{vecT("a")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			v, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(v.Norm2()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "frobenius_norm",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(m.Norm2()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "row_mins",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(m.RowMins()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "row_maxs",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(m.RowMaxs()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "row_sums",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(m.RowSums()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "col_sums",
		Sig:  types.Signature{Params: []types.T{matT("a", "b")}, Result: vecT("b")},
		Eval: func(args []value.Value) (value.Value, error) {
			m, err := argMat(args, 0)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(m.ColSums()), nil
		},
	})
	mustRegister(&Builtin{
		Name: "min_pairwise",
		Sig:  types.Signature{Params: []types.T{vecT("a"), vecT("a")}, Result: vecT("a")},
		Eval: func(args []value.Value) (value.Value, error) {
			a, err := argVec(args, 0)
			if err != nil {
				return value.Null(), err
			}
			b, err := argVec(args, 1)
			if err != nil {
				return value.Null(), err
			}
			out, err := a.MinPairwise(b)
			if err != nil {
				return value.Null(), err
			}
			return value.Vector(out), nil
		},
	})

	// --- Constructors ----------------------------------------------------
	mustRegister(&Builtin{
		Name: "identity_matrix",
		Sig:  types.Signature{Params: []types.T{types.TInt}, Result: matT("", "")},
		Eval: func(args []value.Value) (value.Value, error) {
			n, err := argInt(args, 0)
			if err != nil {
				return value.Null(), err
			}
			if n < 0 {
				return value.Null(), fmt.Errorf("builtins: identity_matrix(%d)", n)
			}
			return value.Matrix(linalg.Identity(int(n))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "zeros_vector",
		Sig:  types.Signature{Params: []types.T{types.TInt}, Result: vecT("")},
		Eval: func(args []value.Value) (value.Value, error) {
			n, err := argInt(args, 0)
			if err != nil {
				return value.Null(), err
			}
			if n < 0 {
				return value.Null(), fmt.Errorf("builtins: zeros_vector(%d)", n)
			}
			return value.Vector(linalg.NewVector(int(n))), nil
		},
	})
	mustRegister(&Builtin{
		Name: "zeros_matrix",
		Sig:  types.Signature{Params: []types.T{types.TInt, types.TInt}, Result: matT("", "")},
		Eval: func(args []value.Value) (value.Value, error) {
			r, err := argInt(args, 0)
			if err != nil {
				return value.Null(), err
			}
			c, err := argInt(args, 1)
			if err != nil {
				return value.Null(), err
			}
			if r < 0 || c < 0 {
				return value.Null(), fmt.Errorf("builtins: zeros_matrix(%d, %d)", r, c)
			}
			return value.Matrix(linalg.NewMatrix(int(r), int(c))), nil
		},
	})

	// --- Scalar math -------------------------------------------------------
	mathFn := func(name string, f func(float64) float64) {
		mustRegister(&Builtin{
			Name: name,
			Sig:  types.Signature{Params: []types.T{types.TDouble}, Result: types.TDouble},
			Eval: func(args []value.Value) (value.Value, error) {
				d, err := argDouble(args, 0)
				if err != nil {
					return value.Null(), err
				}
				return value.Double(f(d)), nil
			},
		})
	}
	mathFn("sqrt", math.Sqrt)
	mathFn("abs", math.Abs)
	mathFn("exp", math.Exp)
	mathFn("ln", math.Log)
	mustRegister(&Builtin{
		Name: "pow",
		Sig:  types.Signature{Params: []types.T{types.TDouble, types.TDouble}, Result: types.TDouble},
		Eval: func(args []value.Value) (value.Value, error) {
			a, err := argDouble(args, 0)
			if err != nil {
				return value.Null(), err
			}
			b, err := argDouble(args, 1)
			if err != nil {
				return value.Null(), err
			}
			return value.Double(math.Pow(a, b)), nil
		},
	})
}
