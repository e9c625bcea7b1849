package builtins

import (
	"fmt"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

// ArithType infers the result type of l op r for op in {+, -, *, /},
// implementing the overloading rules of §3.2: element-wise over two objects
// of the same shape, broadcast between a scalar and a vector/matrix, and the
// usual numeric promotion between scalars. Dimension conflicts between two
// known shapes are compile-time errors.
func ArithType(op string, l, r types.T) (types.T, error) {
	switch {
	case l.IsNumericScalar() && r.IsNumericScalar():
		if op == "/" && l.Base == types.Int && r.Base == types.Int {
			return types.TInt, nil // SQL integer division
		}
		return types.Promote(l, r)
	case l.Base == types.Vector && r.Base == types.Vector:
		d, err := unifyDim(l.Dims[0], r.Dims[0])
		if err != nil {
			return types.T{}, fmt.Errorf("%w: %s %s %s", types.ErrTypeMismatch, l, op, r)
		}
		return types.TVector(d), nil
	case l.Base == types.Matrix && r.Base == types.Matrix:
		dr, err1 := unifyDim(l.Dims[0], r.Dims[0])
		dc, err2 := unifyDim(l.Dims[1], r.Dims[1])
		if err1 != nil || err2 != nil {
			return types.T{}, fmt.Errorf("%w: %s %s %s", types.ErrTypeMismatch, l, op, r)
		}
		return types.TMatrix(dr, dc), nil
	case l.IsNumericScalar() && r.IsLinAlg():
		return r, nil
	case l.IsLinAlg() && r.IsNumericScalar():
		return l, nil
	}
	return types.T{}, fmt.Errorf("%w: operator %s undefined for %s and %s", types.ErrTypeMismatch, op, l, r)
}

func unifyDim(a, b types.Dim) (types.Dim, error) {
	switch {
	case a.Known && b.Known:
		if a.N != b.N {
			return types.Dim{}, types.ErrTypeMismatch
		}
		return a, nil
	case a.Known:
		return a, nil
	default:
		return b, nil
	}
}

// CompareType checks l op r for op in {=, <>, <, <=, >, >=} and returns
// BOOLEAN. Equality is defined for all scalar types; ordering only for
// numerics, strings, and booleans; vectors and matrices are not comparable
// with these operators.
func CompareType(op string, l, r types.T) (types.T, error) {
	if l.IsLinAlg() || r.IsLinAlg() {
		return types.T{}, fmt.Errorf("%w: operator %s undefined for %s and %s", types.ErrTypeMismatch, op, l, r)
	}
	ok := (l.IsNumericScalar() && r.IsNumericScalar()) ||
		(l.Base == types.String && r.Base == types.String) ||
		(l.Base == types.Bool && r.Base == types.Bool)
	if !ok {
		return types.T{}, fmt.Errorf("%w: cannot compare %s with %s", types.ErrTypeMismatch, l, r)
	}
	return types.TBool, nil
}

// Arith evaluates l op r over runtime values, dispatching on the operand
// kinds exactly as ArithType does on their types.
func Arith(op string, l, r value.Value) (value.Value, error) {
	switch {
	case l.IsNumeric() && r.IsNumeric():
		return arithScalar(op, l, r)
	case l.Kind == value.KindVector && r.Kind == value.KindVector:
		return arithVecVec(op, l.Vec, r.Vec)
	case l.Kind == value.KindMatrix && r.Kind == value.KindMatrix:
		return arithMatMat(op, l.Mat, r.Mat)
	case l.IsNumeric() && r.Kind == value.KindVector:
		s, _ := l.AsDouble()
		return arithScalarVec(op, s, r.Vec, true)
	case l.Kind == value.KindVector && r.IsNumeric():
		s, _ := r.AsDouble()
		return arithScalarVec(op, s, l.Vec, false)
	case l.IsNumeric() && r.Kind == value.KindMatrix:
		s, _ := l.AsDouble()
		return arithScalarMat(op, s, r.Mat, true)
	case l.Kind == value.KindMatrix && r.IsNumeric():
		s, _ := r.AsDouble()
		return arithScalarMat(op, s, l.Mat, false)
	}
	return value.Null(), fmt.Errorf("builtins: operator %s undefined for %s and %s", op, l.Kind, r.Kind)
}

func arithScalar(op string, l, r value.Value) (value.Value, error) {
	if l.Kind == value.KindInt && r.Kind == value.KindInt {
		switch op {
		case "+":
			return value.Int(l.I + r.I), nil
		case "-":
			return value.Int(l.I - r.I), nil
		case "*":
			return value.Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return value.Null(), fmt.Errorf("builtins: integer division by zero")
			}
			return value.Int(l.I / r.I), nil
		}
	}
	// The float leg is one lane of VecArithFloat's loop: which operand's NaN
	// a + or * returns is the compiled loop's choice, so a lane's bits must
	// not depend on whether its window was typed.
	a, _ := l.AsDouble()
	b, _ := r.AsDouble()
	var out [1]float64
	if err := VecArithFloat(op, out[:], []float64{a}, []float64{b}, nil); err != nil {
		return value.Null(), err
	}
	return value.Double(out[0]), nil
}

func arithVecVec(op string, l, r *linalg.Vector) (value.Value, error) {
	var (
		out *linalg.Vector
		err error
	)
	switch op {
	case "+":
		out, err = l.Add(r)
	case "-":
		out, err = l.Sub(r)
	case "*":
		out, err = l.Mul(r)
	case "/":
		out, err = l.Div(r)
	default:
		return value.Null(), fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	if err != nil {
		return value.Null(), err
	}
	return value.Vector(out), nil
}

func arithMatMat(op string, l, r *linalg.Matrix) (value.Value, error) {
	var (
		out *linalg.Matrix
		err error
	)
	switch op {
	case "+":
		out, err = l.Add(r)
	case "-":
		out, err = l.Sub(r)
	case "*":
		out, err = l.Hadamard(r)
	case "/":
		out, err = l.Div(r)
	default:
		return value.Null(), fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	if err != nil {
		return value.Null(), err
	}
	return value.Matrix(out), nil
}

// arithScalarVec broadcasts scalar s against vector v; scalarLeft records
// which side the scalar appeared on (it matters for - and /).
func arithScalarVec(op string, s float64, v *linalg.Vector, scalarLeft bool) (value.Value, error) {
	switch op {
	case "+":
		return value.Vector(v.ScaleAdd(s)), nil
	case "*":
		return value.Vector(v.Scale(s)), nil
	case "-":
		if scalarLeft {
			return value.Vector(v.ScaleRSub(s)), nil
		}
		return value.Vector(v.ScaleAdd(-s)), nil
	case "/":
		if scalarLeft {
			return value.Vector(v.ScaleRDiv(s)), nil
		}
		return value.Vector(v.ScaleDiv(s)), nil
	}
	return value.Null(), fmt.Errorf("builtins: unknown arithmetic operator %q", op)
}

func arithScalarMat(op string, s float64, m *linalg.Matrix, scalarLeft bool) (value.Value, error) {
	switch op {
	case "+":
		return value.Matrix(m.ScaleAdd(s)), nil
	case "*":
		return value.Matrix(m.Scale(s)), nil
	case "-":
		if scalarLeft {
			return value.Matrix(m.ScaleRSub(s)), nil
		}
		return value.Matrix(m.ScaleAdd(-s)), nil
	case "/":
		if scalarLeft {
			return value.Matrix(m.ScaleRDiv(s)), nil
		}
		return value.Matrix(m.ScaleDiv(s)), nil
	}
	return value.Null(), fmt.Errorf("builtins: unknown arithmetic operator %q", op)
}

// Compare evaluates a comparison operator over runtime values, returning a
// BOOLEAN value.
func Compare(op string, l, r value.Value) (value.Value, error) {
	if op == "=" || op == "<>" {
		// Equality works for every scalar kind, including cross numeric kinds.
		if l.IsNumeric() && r.IsNumeric() {
			a, _ := l.AsDouble()
			b, _ := r.AsDouble()
			eq := a == b
			if op == "<>" {
				eq = !eq
			}
			return value.Bool(eq), nil
		}
		if l.Kind == value.KindVector || l.Kind == value.KindMatrix ||
			r.Kind == value.KindVector || r.Kind == value.KindMatrix {
			return value.Null(), fmt.Errorf("builtins: operator %s undefined for %s and %s", op, l.Kind, r.Kind)
		}
		eq := l.Equal(r)
		if op == "<>" {
			eq = !eq
		}
		return value.Bool(eq), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return value.Null(), err
	}
	switch op {
	case "<":
		return value.Bool(c < 0), nil
	case "<=":
		return value.Bool(c <= 0), nil
	case ">":
		return value.Bool(c > 0), nil
	case ">=":
		return value.Bool(c >= 0), nil
	}
	return value.Null(), fmt.Errorf("builtins: unknown comparison operator %q", op)
}
