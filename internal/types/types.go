// Package types implements the extended SQL type system of the paper:
// the classic scalar types plus LABELED_SCALAR, VECTOR[n] and MATRIX[r][c]
// with optionally-unknown dimensions, and the templated function signatures
// of §4.2 whose dimension variables let both the type checker and the query
// optimizer infer the exact shapes (and therefore byte sizes) of linear
// algebra intermediates.
package types

import (
	"errors"
	"fmt"
	"strconv"
)

// Base enumerates the storage classes of the type system.
type Base uint8

// The base types. Any is used only inside built-in signatures that accept
// every type (e.g. COUNT).
const (
	Invalid Base = iota
	Bool
	Int
	Double
	String
	LabeledScalar
	Vector
	Matrix
	Any
)

func (b Base) String() string {
	switch b {
	case Bool:
		return "BOOLEAN"
	case Int:
		return "INTEGER"
	case Double:
		return "DOUBLE"
	case String:
		return "STRING"
	case LabeledScalar:
		return "LABELED_SCALAR"
	case Vector:
		return "VECTOR"
	case Matrix:
		return "MATRIX"
	case Any:
		return "ANY"
	}
	return "INVALID"
}

// Dim is one dimension of a VECTOR or MATRIX type. A dimension is either a
// known constant, unknown (declared as VECTOR[] / MATRIX[][]), or — inside a
// function signature template only — a named variable such as the a, b, c of
//
//	matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]
type Dim struct {
	N     int    // valid when Known
	Var   string // non-empty means a template variable
	Known bool
}

// UnknownDim is the dimension of a VECTOR[] declaration.
var UnknownDim = Dim{}

// KnownDim returns a constant dimension.
func KnownDim(n int) Dim { return Dim{N: n, Known: true} }

// VarDim returns a template dimension variable.
func VarDim(name string) Dim { return Dim{Var: name} }

func (d Dim) String() string {
	switch {
	case d.Known:
		return strconv.Itoa(d.N)
	case d.Var != "":
		return d.Var
	default:
		return ""
	}
}

// T is an extended SQL type. Vector types use Dims[0]; matrix types use
// Dims[0] (rows) and Dims[1] (cols); all other bases ignore Dims.
type T struct {
	Base Base
	Dims [2]Dim
}

// Convenience constructors.
var (
	TBool          = T{Base: Bool}
	TInt           = T{Base: Int}
	TDouble        = T{Base: Double}
	TString        = T{Base: String}
	TLabeledScalar = T{Base: LabeledScalar}
	TAny           = T{Base: Any}
)

// TVector returns the VECTOR[n] type; pass UnknownDim for VECTOR[].
func TVector(n Dim) T { return T{Base: Vector, Dims: [2]Dim{n, {}}} }

// TMatrix returns the MATRIX[r][c] type.
func TMatrix(r, c Dim) T { return T{Base: Matrix, Dims: [2]Dim{r, c}} }

func (t T) String() string {
	switch t.Base {
	case Vector:
		return fmt.Sprintf("VECTOR[%s]", t.Dims[0])
	case Matrix:
		return fmt.Sprintf("MATRIX[%s][%s]", t.Dims[0], t.Dims[1])
	default:
		return t.Base.String()
	}
}

// IsNumericScalar reports whether t participates in scalar arithmetic.
func (t T) IsNumericScalar() bool {
	return t.Base == Int || t.Base == Double || t.Base == LabeledScalar
}

// IsLinAlg reports whether t is a VECTOR or MATRIX.
func (t T) IsLinAlg() bool { return t.Base == Vector || t.Base == Matrix }

// SizeBytes estimates the byte width of one value of this type for the cost
// model. Unknown dimensions fall back to defaultDim, so plans over VECTOR[]
// columns still get a usable (if rough) estimate.
func (t T) SizeBytes(defaultDim int) float64 {
	dim := func(d Dim) float64 {
		if d.Known {
			return float64(d.N)
		}
		return float64(defaultDim)
	}
	switch t.Base {
	case Bool:
		return 1
	case Int, Double:
		return 8
	case LabeledScalar:
		return 16
	case String:
		return 24
	case Vector:
		return 8*dim(t.Dims[0]) + 12
	case Matrix:
		return 8*dim(t.Dims[0])*dim(t.Dims[1]) + 8
	}
	return 8
}

// ErrTypeMismatch is wrapped by every type error raised during unification.
var ErrTypeMismatch = errors.New("types: mismatch")

// Promote computes the result type of mixing two numeric scalar types.
func Promote(a, b T) (T, error) {
	if !a.IsNumericScalar() || !b.IsNumericScalar() {
		return T{}, fmt.Errorf("%w: no numeric promotion for %s and %s", ErrTypeMismatch, a, b)
	}
	if a.Base == Int && b.Base == Int {
		return TInt, nil
	}
	return TDouble, nil
}
