package builtins

import (
	"errors"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

func TestArithTypeScalars(t *testing.T) {
	if got, _ := ArithType("+", types.TInt, types.TInt); got != types.TInt {
		t.Fatalf("int+int = %v", got)
	}
	if got, _ := ArithType("/", types.TInt, types.TInt); got != types.TInt {
		t.Fatalf("int/int = %v (integer division)", got)
	}
	if got, _ := ArithType("/", types.TInt, types.TDouble); got != types.TDouble {
		t.Fatalf("int/double = %v", got)
	}
	if got, _ := ArithType("*", types.TLabeledScalar, types.TInt); got != types.TDouble {
		t.Fatalf("labeled*int = %v", got)
	}
}

func TestArithTypeLinAlg(t *testing.T) {
	v10 := types.TVector(types.KnownDim(10))
	vU := types.TVector(types.UnknownDim)
	if got, err := ArithType("-", v10, v10); err != nil || got != v10 {
		t.Fatalf("v-v = %v, %v", got, err)
	}
	// Unknown dim unifies with known.
	if got, err := ArithType("+", v10, vU); err != nil || got != v10 {
		t.Fatalf("v10+vU = %v, %v", got, err)
	}
	if _, err := ArithType("+", v10, types.TVector(types.KnownDim(9))); !errors.Is(err, types.ErrTypeMismatch) {
		t.Fatalf("v10+v9 error = %v", err)
	}
	m := types.TMatrix(types.KnownDim(2), types.KnownDim(3))
	if got, err := ArithType("*", m, m); err != nil || got != m {
		t.Fatalf("m*m = %v, %v", got, err)
	}
	if _, err := ArithType("*", m, types.TMatrix(types.KnownDim(3), types.KnownDim(2))); err == nil {
		t.Fatal("shape conflict accepted")
	}
	// Scalar broadcast.
	if got, err := ArithType("*", types.TDouble, v10); err != nil || got != v10 {
		t.Fatalf("s*v = %v, %v", got, err)
	}
	if got, err := ArithType("+", m, types.TInt); err != nil || got != m {
		t.Fatalf("m+s = %v, %v", got, err)
	}
	// Vector with matrix is undefined.
	if _, err := ArithType("+", v10, m); !errors.Is(err, types.ErrTypeMismatch) {
		t.Fatalf("v+m error = %v", err)
	}
	if _, err := ArithType("+", types.TString, types.TInt); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestCompareType(t *testing.T) {
	if got, err := CompareType("=", types.TInt, types.TDouble); err != nil || got != types.TBool {
		t.Fatalf("= : %v, %v", got, err)
	}
	if _, err := CompareType("<", types.TVector(types.UnknownDim), types.TVector(types.UnknownDim)); err == nil {
		t.Fatal("vector comparison accepted")
	}
	if _, err := CompareType("<", types.TString, types.TInt); err == nil {
		t.Fatal("string<int accepted")
	}
	if got, err := CompareType("<", types.TString, types.TString); err != nil || got != types.TBool {
		t.Fatalf("string<string : %v, %v", got, err)
	}
}

func TestArithScalarValues(t *testing.T) {
	got, err := Arith(&EvalCtx{}, "+", value.Int(2), value.Int(3))
	if err != nil || !got.Equal(value.Int(5)) {
		t.Fatalf("2+3 = %v, %v", got, err)
	}
	got, _ = Arith(&EvalCtx{}, "/", value.Int(7), value.Int(2))
	if !got.Equal(value.Int(3)) {
		t.Fatalf("7/2 = %v (integer division)", got)
	}
	if _, err := Arith(&EvalCtx{}, "/", value.Int(1), value.Int(0)); err == nil {
		t.Fatal("integer division by zero accepted")
	}
	got, _ = Arith(&EvalCtx{}, "*", value.Double(2.5), value.Int(2))
	if !got.Equal(value.Double(5)) {
		t.Fatalf("2.5*2 = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "-", value.LabeledScalar(4, 1), value.Int(1))
	if !got.Equal(value.Double(3)) {
		t.Fatalf("labeled-int = %v", got)
	}
}

func TestArithVectorValues(t *testing.T) {
	a, b := vec(1, 2), vec(3, 4)
	cases := map[string]value.Value{
		"+": vec(4, 6),
		"-": vec(-2, -2),
		"*": vec(3, 8),
		"/": vec(1.0/3.0, 0.5),
	}
	for op, want := range cases {
		got, err := Arith(&EvalCtx{}, op, a, b)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !got.Vec.EqualApprox(want.Vec, 1e-12) {
			t.Fatalf("%s = %v", op, got)
		}
	}
	if _, err := Arith(&EvalCtx{}, "+", vec(1), vec(1, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestArithMatrixValues(t *testing.T) {
	a := mat(t, [][]float64{{1, 2}, {3, 4}})
	b := mat(t, [][]float64{{5, 6}, {7, 8}})
	got, _ := Arith(&EvalCtx{}, "*", a, b)
	// * is Hadamard, not matrix multiply (paper §3.2).
	if !got.Equal(mat(t, [][]float64{{5, 12}, {21, 32}})) {
		t.Fatalf("hadamard = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "+", a, b)
	if !got.Equal(mat(t, [][]float64{{6, 8}, {10, 12}})) {
		t.Fatalf("add = %v", got)
	}
}

func TestArithBroadcast(t *testing.T) {
	v := vec(2, 4)
	got, _ := Arith(&EvalCtx{}, "*", value.Int(3), v)
	if !got.Equal(vec(6, 12)) {
		t.Fatalf("3*v = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "*", v, value.Int(3))
	if !got.Equal(vec(6, 12)) {
		t.Fatalf("v*3 = %v", got)
	}
	// Subtraction is not commutative: check both sides.
	got, _ = Arith(&EvalCtx{}, "-", value.Int(10), v)
	if !got.Equal(vec(8, 6)) {
		t.Fatalf("10-v = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "-", v, value.Int(1))
	if !got.Equal(vec(1, 3)) {
		t.Fatalf("v-1 = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "/", value.Double(8), v)
	if !got.Equal(vec(4, 2)) {
		t.Fatalf("8/v = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "/", v, value.Double(2))
	if !got.Equal(vec(1, 2)) {
		t.Fatalf("v/2 = %v", got)
	}
	m := mat(t, [][]float64{{2, 4}})
	got, _ = Arith(&EvalCtx{}, "-", value.Double(5), m)
	if !got.Equal(mat(t, [][]float64{{3, 1}})) {
		t.Fatalf("5-m = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "+", m, value.Double(1))
	if !got.Equal(mat(t, [][]float64{{3, 5}})) {
		t.Fatalf("m+1 = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "/", m, value.Double(2))
	if !got.Equal(mat(t, [][]float64{{1, 2}})) {
		t.Fatalf("m/2 = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "/", value.Double(8), m)
	if !got.Equal(mat(t, [][]float64{{4, 2}})) {
		t.Fatalf("8/m = %v", got)
	}
	got, _ = Arith(&EvalCtx{}, "*", value.Double(2), m)
	if !got.Equal(mat(t, [][]float64{{4, 8}})) {
		t.Fatalf("2*m = %v", got)
	}
}

func TestArithUndefinedPairs(t *testing.T) {
	if _, err := Arith(&EvalCtx{}, "+", vec(1), mat(t, [][]float64{{1}})); err == nil {
		t.Fatal("vector+matrix accepted")
	}
	if _, err := Arith(&EvalCtx{}, "+", value.String_("x"), value.Int(1)); err == nil {
		t.Fatal("string+int accepted")
	}
}

func TestCompareValues(t *testing.T) {
	got, err := Compare("=", value.Int(3), value.Double(3))
	if err != nil || !got.B {
		t.Fatalf("3 = 3.0: %v, %v", got, err)
	}
	got, _ = Compare("<>", value.Int(3), value.Double(3))
	if got.B {
		t.Fatal("3 <> 3.0 should be false")
	}
	got, _ = Compare("<", value.Int(2), value.Int(3))
	if !got.B {
		t.Fatal("2 < 3")
	}
	got, _ = Compare(">=", value.Double(2), value.Int(2))
	if !got.B {
		t.Fatal("2.0 >= 2")
	}
	got, _ = Compare("=", value.String_("a"), value.String_("a"))
	if !got.B {
		t.Fatal("'a' = 'a'")
	}
	if _, err := Compare("=", vec(1), vec(1)); err == nil {
		t.Fatal("vector equality operator accepted")
	}
	if _, err := Compare("<", value.String_("a"), value.Int(1)); err == nil {
		t.Fatal("cross-kind ordering accepted")
	}
	// The paper's a.dataID <> mxx.id pattern.
	got, _ = Compare("<>", value.Int(1), value.Int(2))
	if !got.B {
		t.Fatal("1 <> 2")
	}
}

func TestLinalgVectorReuse(t *testing.T) {
	// Arith must not mutate its inputs.
	v := linalg.VectorOf(1, 2)
	_, err := Arith(&EvalCtx{}, "+", value.Vector(v), value.Vector(linalg.VectorOf(10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(linalg.VectorOf(1, 2)) {
		t.Fatal("Arith mutated its input")
	}
}

func TestArithUnknownOperator(t *testing.T) {
	if _, err := Arith(&EvalCtx{}, "%", value.Int(1), value.Int(2)); err == nil {
		t.Fatal("unknown scalar operator accepted")
	}
	if _, err := Arith(&EvalCtx{}, "%", vec(1), vec(1)); err == nil {
		t.Fatal("unknown vector operator accepted")
	}
	if _, err := Arith(&EvalCtx{}, "%", mat(t, [][]float64{{1}}), mat(t, [][]float64{{1}})); err == nil {
		t.Fatal("unknown matrix operator accepted")
	}
	if _, err := Arith(&EvalCtx{}, "%", value.Double(1), vec(1)); err == nil {
		t.Fatal("unknown broadcast operator accepted")
	}
	if _, err := Arith(&EvalCtx{}, "%", value.Double(1), mat(t, [][]float64{{1}})); err == nil {
		t.Fatal("unknown matrix broadcast operator accepted")
	}
	if _, err := Compare("~", value.Int(1), value.Int(2)); err == nil {
		t.Fatal("unknown comparison operator accepted")
	}
}

func TestMatrixShapeMismatchAtRuntime(t *testing.T) {
	a := mat(t, [][]float64{{1, 2}})
	b := mat(t, [][]float64{{1}, {2}})
	for _, op := range []string{"+", "-", "*", "/"} {
		if _, err := Arith(&EvalCtx{}, op, a, b); err == nil {
			t.Fatalf("matrix shape mismatch accepted for %s", op)
		}
	}
}
