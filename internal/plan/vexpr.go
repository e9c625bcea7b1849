package plan

import (
	"fmt"
	"slices"

	"relalg/internal/builtins"
	"relalg/internal/value"
)

// BatchSource is the executor-side view of a window of columns that EvalVec
// evaluates against. Columns returned by BatchCol are read-only and may be
// shared between expressions.
type BatchSource interface {
	// BatchLen is the number of lanes in the window (live and dead).
	BatchLen() int
	// BatchCol returns column idx of the window.
	BatchCol(idx int) (*value.Col, error)
}

// EvalVec evaluates e over every lane of src named by sel (all lanes when sel
// is nil), returning a column with those lanes set; unselected lanes are
// unspecified. It is the engine's only expression evaluator. Typed fast paths
// cover column refs, constants, arithmetic, comparison, and logic over
// homogeneous columns, and a call whose builtin has a column form (EvalCol)
// over typed argument columns; generic columns (mixed kinds or NULLs) and
// other calls go lane by lane through the scalar builtins (Arith, Compare,
// Builtin.Eval), which define each lane's semantics. The typed loops compute
// exactly what those builtins compute (Arith's float leg runs VecArithFloat
// itself), so a lane's value never depends on its neighbours. The returned
// column is read-only and may alias src's storage (a bare column reference
// is passed through without copying).
func EvalVec(e Expr, src BatchSource, sel []int32) (*value.Col, error) {
	n := src.BatchLen()
	switch x := e.(type) {
	case *Col:
		if x.Idx < 0 {
			return nil, fmt.Errorf("plan: column index %d out of range", x.Idx)
		}
		return src.BatchCol(x.Idx)
	case *Const:
		out := &value.Col{}
		out.Fill(x.V, n)
		return out, nil
	case *Binary:
		lc, err := EvalVec(x.L, src, sel)
		if err != nil {
			return nil, err
		}
		rc, err := EvalVec(x.R, src, sel)
		if err != nil {
			return nil, err
		}
		return evalVecBinary(x, lc, rc, n, sel)
	case *Not:
		inner, err := EvalVec(x.E, src, sel)
		if err != nil {
			return nil, err
		}
		b := boolLanes(inner, n, sel, nil)
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		builtins.VecNot(out.B, b, sel)
		return out, nil
	case *Neg:
		inner, err := EvalVec(x.E, src, sel)
		if err != nil {
			return nil, err
		}
		return evalVecNeg(inner, n, sel)
	case *Call:
		args := make([]*value.Col, len(x.Args))
		for i, a := range x.Args {
			c, err := EvalVec(a, src, sel)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		if x.Fn.EvalCol != nil && !slices.ContainsFunc(args, func(c *value.Col) bool { return c.Generic }) {
			out, err := x.Fn.EvalCol(args, n, sel)
			if out != nil || err != nil {
				return out, err
			}
		}
		out := &value.Col{Generic: true, Any: make([]value.Value, n)}
		scratch := make([]value.Value, len(args))
		apply := func(i int) error {
			for j, c := range args {
				v := c.Value(i)
				if v.IsNull() {
					out.Any[i] = value.Null()
					return nil
				}
				scratch[j] = v
			}
			v, err := x.Fn.Eval(scratch)
			if err != nil {
				return err
			}
			out.Any[i] = v
			return nil
		}
		if err := forLanes(n, sel, apply); err != nil {
			return nil, err
		}
		out.Specialize(n, sel)
		return out, nil
	case *ScalarSubquery:
		return nil, fmt.Errorf("plan: unresolved scalar subquery reached execution")
	}
	return nil, fmt.Errorf("plan: cannot evaluate expression %T", e)
}

// EvalRow evaluates e over one row: EvalVec over a window of that row alone.
func EvalRow(e Expr, row value.Row) (value.Value, error) {
	c, err := EvalVec(e, rowLane(row), nil)
	if err != nil {
		return value.Null(), err
	}
	return c.Value(0), nil
}

// rowLane is a one-lane window over a row.
type rowLane value.Row

func (r rowLane) BatchLen() int { return 1 }

func (r rowLane) BatchCol(idx int) (*value.Col, error) {
	if idx >= len(r) {
		return nil, fmt.Errorf("plan: column index %d out of range for row of %d", idx, len(r))
	}
	c := &value.Col{}
	c.Fill(r[idx], 1)
	return c, nil
}

func forLanes(n int, sel []int32, f func(i int) error) error {
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := f(int(i)); err != nil {
			return err
		}
	}
	return nil
}

func evalVecBinary(b *Binary, lc, rc *value.Col, n int, sel []int32) (*value.Col, error) {
	switch b.Kind {
	case BinArith:
		if lc.Kind == value.KindInt && rc.Kind == value.KindInt && !lc.Generic && !rc.Generic {
			out := &value.Col{Kind: value.KindInt, I: make([]int64, n)}
			if err := builtins.VecArithInt(b.Op, out.I, lc.I, rc.I, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if lc.IsNumeric() && rc.IsNumeric() {
			lf, _ := lc.AsFloats(nil, sel)
			rf, _ := rc.AsFloats(nil, sel)
			out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
			if err := builtins.VecArithFloat(b.Op, out.F, lf, rf, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		out := &value.Col{Generic: true, Any: make([]value.Value, n)}
		err := forLanes(n, sel, func(i int) error {
			l, r := lc.Value(i), rc.Value(i)
			if l.IsNull() || r.IsNull() {
				out.Any[i] = value.Null()
				return nil
			}
			v, err := builtins.Arith(b.Op, l, r)
			if err != nil {
				return err
			}
			out.Any[i] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Specialize(n, sel)
		return out, nil
	case BinCompare:
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		if lc.IsNumeric() && rc.IsNumeric() {
			lf, _ := lc.AsFloats(nil, sel)
			rf, _ := rc.AsFloats(nil, sel)
			if err := builtins.VecCmpFloat(b.Op, out.B, lf, rf, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if !lc.Generic && !rc.Generic && lc.Kind == value.KindString && rc.Kind == value.KindString {
			if err := builtins.VecCmpString(b.Op, out.B, lc.S, rc.S, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if !lc.Generic && !rc.Generic && lc.Kind == value.KindBool && rc.Kind == value.KindBool {
			if err := builtins.VecCmpBool(b.Op, out.B, lc.B, rc.B, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		err := forLanes(n, sel, func(i int) error {
			l, r := lc.Value(i), rc.Value(i)
			if l.IsNull() || r.IsNull() {
				out.B[i] = false
				return nil
			}
			v, err := builtins.Compare(b.Op, l, r)
			if err != nil {
				return err
			}
			out.B[i] = v.Kind == value.KindBool && v.B
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	case BinLogic:
		lb := boolLanes(lc, n, sel, nil)
		rb := boolLanes(rc, n, sel, nil)
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		if err := builtins.VecLogic(b.Op, out.B, lb, rb, sel); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("plan: unknown binary kind %d", b.Kind)
}

// boolLanes coerces a column to the two-valued truthiness of logic operands:
// true iff the lane is a BOOLEAN true.
func boolLanes(c *value.Col, n int, sel []int32, scratch []bool) []bool {
	if !c.Generic && c.Kind == value.KindBool {
		return c.B
	}
	if cap(scratch) < n {
		scratch = make([]bool, n)
	}
	scratch = scratch[:n]
	if !c.Generic {
		// Homogeneous non-boolean column: every lane coerces to false.
		for i := range scratch {
			scratch[i] = false
		}
		return scratch
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			v := c.Any[i]
			scratch[i] = v.Kind == value.KindBool && v.B
		}
	} else {
		for _, i := range sel {
			v := c.Any[i]
			scratch[i] = v.Kind == value.KindBool && v.B
		}
	}
	return scratch
}

func evalVecNeg(inner *value.Col, n int, sel []int32) (*value.Col, error) {
	if !inner.Generic {
		switch inner.Kind {
		case value.KindInt:
			out := &value.Col{Kind: value.KindInt, I: make([]int64, n)}
			if sel == nil {
				for i, x := range inner.I {
					out.I[i] = -x
				}
			} else {
				for _, i := range sel {
					out.I[i] = -inner.I[i]
				}
			}
			return out, nil
		case value.KindDouble, value.KindLabeledScalar:
			// Negating a labeled scalar drops the label, as the generic leg does.
			out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
			if sel == nil {
				for i, x := range inner.F {
					out.F[i] = -x
				}
			} else {
				for _, i := range sel {
					out.F[i] = -inner.F[i]
				}
			}
			return out, nil
		}
	}
	out := &value.Col{Generic: true, Any: make([]value.Value, n)}
	err := forLanes(n, sel, func(i int) error {
		v := inner.Value(i)
		if v.IsNull() {
			out.Any[i] = value.Null()
			return nil
		}
		switch v.Kind {
		case value.KindInt:
			out.Any[i] = value.Int(-v.I)
		case value.KindDouble, value.KindLabeledScalar:
			out.Any[i] = value.Double(-v.D)
		case value.KindVector:
			out.Any[i] = value.Vector(v.Vec.Scale(-1))
		case value.KindMatrix:
			out.Any[i] = value.Matrix(v.Mat.Scale(-1))
		default:
			return fmt.Errorf("plan: cannot negate %s", v.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Specialize(n, sel)
	return out, nil
}
