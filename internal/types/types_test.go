package types

import (
	"errors"
	"testing"
)

func TestTypeString(t *testing.T) {
	cases := map[string]T{
		"INTEGER":        TInt,
		"DOUBLE":         TDouble,
		"BOOLEAN":        TBool,
		"STRING":         TString,
		"LABELED_SCALAR": TLabeledScalar,
		"VECTOR[10]":     TVector(KnownDim(10)),
		"VECTOR[]":       TVector(UnknownDim),
		"MATRIX[3][4]":   TMatrix(KnownDim(3), KnownDim(4)),
		"MATRIX[][]":     TMatrix(UnknownDim, UnknownDim),
		"MATRIX[10][]":   TMatrix(KnownDim(10), UnknownDim),
		"MATRIX[a][b]":   TMatrix(VarDim("a"), VarDim("b")),
	}
	for want, ty := range cases {
		if ty.String() != want {
			t.Errorf("String = %q, want %q", ty.String(), want)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !TInt.IsNumericScalar() || !TDouble.IsNumericScalar() || !TLabeledScalar.IsNumericScalar() {
		t.Fatal("numeric scalars misclassified")
	}
	if TString.IsNumericScalar() || TVector(UnknownDim).IsNumericScalar() {
		t.Fatal("non-numerics misclassified")
	}
	if !TVector(UnknownDim).IsLinAlg() || !TMatrix(UnknownDim, UnknownDim).IsLinAlg() || TInt.IsLinAlg() {
		t.Fatal("IsLinAlg misclassified")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := TMatrix(KnownDim(10), KnownDim(100000)).SizeBytes(1); got != 8*10*100000+8 {
		t.Fatalf("matrix size = %g", got)
	}
	if got := TVector(KnownDim(100)).SizeBytes(1); got != 812 {
		t.Fatalf("vector size = %g", got)
	}
	// Unknown dims use the fallback.
	if got := TVector(UnknownDim).SizeBytes(1000); got != 8012 {
		t.Fatalf("unknown vector size = %g", got)
	}
	if TInt.SizeBytes(0) != 8 || TBool.SizeBytes(0) != 1 || TLabeledScalar.SizeBytes(0) != 16 {
		t.Fatal("scalar sizes wrong")
	}
}

func TestPromote(t *testing.T) {
	ii, err := Promote(TInt, TInt)
	if err != nil || ii != TInt {
		t.Fatalf("int+int = %v, %v", ii, err)
	}
	id, err := Promote(TInt, TDouble)
	if err != nil || id != TDouble {
		t.Fatalf("int+double = %v, %v", id, err)
	}
	ld, err := Promote(TLabeledScalar, TInt)
	if err != nil || ld != TDouble {
		t.Fatalf("labeled+int = %v, %v", ld, err)
	}
	if _, err := Promote(TString, TInt); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("string promotion error = %v", err)
	}
}

// The paper's matrix_multiply signature.
var sigMatMul = Signature{
	Params: []T{TMatrix(VarDim("a"), VarDim("b")), TMatrix(VarDim("b"), VarDim("c"))},
	Result: TMatrix(VarDim("a"), VarDim("c")),
}

func TestUnifyPaperExample(t *testing.T) {
	// U (u_matrix MATRIX[1000][100]), V (v_matrix MATRIX[100][10000])
	res, b, err := sigMatMul.Unify([]T{
		TMatrix(KnownDim(1000), KnownDim(100)),
		TMatrix(KnownDim(100), KnownDim(10000)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "MATRIX[1000][10000]" {
		t.Fatalf("result = %s", res)
	}
	if b["a"] != 1000 || b["b"] != 100 || b["c"] != 10000 {
		t.Fatalf("bindings = %v", b)
	}
}

func TestUnifyDimensionConflict(t *testing.T) {
	// b bound to 100 then 99 -> compile-time error (paper: "a different
	// value for b would cause a compile-time error").
	_, _, err := sigMatMul.Unify([]T{
		TMatrix(KnownDim(1000), KnownDim(100)),
		TMatrix(KnownDim(99), KnownDim(10000)),
	})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("error = %v, want ErrTypeMismatch", err)
	}
}

func TestUnifyUnknownDimsDeferred(t *testing.T) {
	// MATRIX[][] inputs: no bindings, result fully unknown, no error.
	res, b, err := sigMatMul.Unify([]T{
		TMatrix(UnknownDim, UnknownDim),
		TMatrix(UnknownDim, KnownDim(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 || b["c"] != 7 {
		t.Fatalf("bindings = %v", b)
	}
	if res.String() != "MATRIX[][7]" {
		t.Fatalf("result = %s", res)
	}
}

func TestUnifySquareConstraint(t *testing.T) {
	// diag(MATRIX[a][a]) -> VECTOR[a]
	sigDiag := Signature{
		Params: []T{TMatrix(VarDim("a"), VarDim("a"))},
		Result: TVector(VarDim("a")),
	}
	res, _, err := sigDiag.Unify([]T{TMatrix(KnownDim(5), KnownDim(5))})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "VECTOR[5]" {
		t.Fatalf("diag result = %s", res)
	}
	if _, _, err := sigDiag.Unify([]T{TMatrix(KnownDim(5), KnownDim(6))}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("non-square diag error = %v", err)
	}
}

func TestUnifyMatVecSizeCheck(t *testing.T) {
	// matrix_vector_multiply(MATRIX[a][b], VECTOR[b]) -> VECTOR[a]
	sig := Signature{
		Params: []T{TMatrix(VarDim("a"), VarDim("b")), TVector(VarDim("b"))},
		Result: TVector(VarDim("a")),
	}
	// The paper's example: MATRIX[10][10] with VECTOR[100] must not compile.
	_, _, err := sig.Unify([]T{TMatrix(KnownDim(10), KnownDim(10)), TVector(KnownDim(100))})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("error = %v, want ErrTypeMismatch", err)
	}
	// MATRIX[10][10] with VECTOR[10] compiles to VECTOR[10].
	res, _, err := sig.Unify([]T{TMatrix(KnownDim(10), KnownDim(10)), TVector(KnownDim(10))})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "VECTOR[10]" {
		t.Fatalf("result = %s", res)
	}
	// MATRIX[10][10] with VECTOR[] compiles (run-time check), result VECTOR[10].
	res, _, err = sig.Unify([]T{TMatrix(KnownDim(10), KnownDim(10)), TVector(UnknownDim)})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "VECTOR[10]" {
		t.Fatalf("result = %s", res)
	}
}

func TestUnifyArgCountAndBase(t *testing.T) {
	if _, _, err := sigMatMul.Unify([]T{TMatrix(UnknownDim, UnknownDim)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("arity error = %v", err)
	}
	if _, _, err := sigMatMul.Unify([]T{TVector(UnknownDim), TMatrix(UnknownDim, UnknownDim)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("base error = %v", err)
	}
}

func TestUnifyScalarParams(t *testing.T) {
	// label_scalar(DOUBLE, INTEGER) -> LABELED_SCALAR accepts INT for DOUBLE.
	sig := Signature{Params: []T{TDouble, TInt}, Result: TLabeledScalar}
	res, _, err := sig.Unify([]T{TInt, TInt})
	if err != nil || res != TLabeledScalar {
		t.Fatalf("res = %v, err = %v", res, err)
	}
	if _, _, err := sig.Unify([]T{TString, TInt}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("string-for-double error = %v", err)
	}
	if _, _, err := sig.Unify([]T{TDouble, TDouble}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("double-for-int error = %v", err)
	}
}

func TestUnifyFixedDims(t *testing.T) {
	// A signature with a literal dimension: f(VECTOR[3]) -> DOUBLE.
	sig := Signature{Params: []T{TVector(KnownDim(3))}, Result: TDouble}
	if _, _, err := sig.Unify([]T{TVector(KnownDim(4))}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("fixed dim error = %v", err)
	}
	if _, _, err := sig.Unify([]T{TVector(KnownDim(3))}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sig.Unify([]T{TVector(UnknownDim)}); err != nil {
		t.Fatal(err) // deferred to run time
	}
}

func TestSignatureString(t *testing.T) {
	if got := sigMatMul.String(); got != "(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]" {
		t.Fatalf("String = %q", got)
	}
}
