package builtins

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

func eval(t *testing.T, name string, args ...value.Value) value.Value {
	t.Helper()
	b, ok := Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	v, err := b.Eval(args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func evalErr(t *testing.T, name string, args ...value.Value) error {
	t.Helper()
	b, ok := Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	_, err := b.Eval(args)
	if err == nil {
		t.Fatalf("%s: expected error", name)
	}
	return err
}

func vec(xs ...float64) value.Value { return value.Vector(linalg.VectorOf(xs...)) }
func mat(t *testing.T, rows [][]float64) value.Value {
	t.Helper()
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return value.Matrix(m)
}

func TestRegistryComplete(t *testing.T) {
	// The paper reports 22 built-in functions; our implementation provides
	// at least that many plus the conversion helpers.
	want := []string{
		"matrix_multiply", "matrix_vector_multiply", "vector_matrix_multiply",
		"inner_product", "outer_product", "trans_matrix", "matrix_inverse",
		"diag", "diag_matrix", "row_matrix", "col_matrix", "label_scalar",
		"label_vector", "get_scalar", "get_entry", "get_row", "get_col",
		"get_label", "vector_size", "matrix_rows", "matrix_cols",
		"sum_vector", "sum_matrix", "min_vector", "max_vector", "arg_min",
		"arg_max", "trace", "norm2", "frobenius_norm", "row_mins", "row_maxs",
		"row_sums", "col_sums", "min_pairwise", "identity_matrix",
		"zeros_vector", "zeros_matrix", "sqrt", "abs", "exp", "ln", "pow",
	}
	for _, n := range want {
		if _, ok := Lookup(n); !ok {
			t.Errorf("missing builtin %q", n)
		}
	}
	if len(Names()) < 22 {
		t.Fatalf("only %d builtins registered; the paper has 22", len(Names()))
	}
}

func TestMatrixMultiply(t *testing.T) {
	a := mat(t, [][]float64{{1, 2}, {3, 4}})
	b := mat(t, [][]float64{{5, 6}, {7, 8}})
	got := eval(t, "matrix_multiply", a, b)
	want := mat(t, [][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
	evalErr(t, "matrix_multiply", a, mat(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}))
	evalErr(t, "matrix_multiply", a, vec(1, 2))
}

func TestMatrixVectorMultiply(t *testing.T) {
	m := mat(t, [][]float64{{1, 2}, {3, 4}})
	got := eval(t, "matrix_vector_multiply", m, vec(1, 1))
	if !got.Equal(vec(3, 7)) {
		t.Fatalf("got %v", got)
	}
	got = eval(t, "vector_matrix_multiply", vec(1, 1), m)
	if !got.Equal(vec(4, 6)) {
		t.Fatalf("got %v", got)
	}
	evalErr(t, "matrix_vector_multiply", m, vec(1, 2, 3))
}

func TestInnerOuterProduct(t *testing.T) {
	if got := eval(t, "inner_product", vec(1, 2), vec(3, 4)); got.D != 11 {
		t.Fatalf("inner = %v", got)
	}
	got := eval(t, "outer_product", vec(1, 2), vec(3, 4, 5))
	want := mat(t, [][]float64{{3, 4, 5}, {6, 8, 10}})
	if !got.Equal(want) {
		t.Fatalf("outer = %v", got)
	}
	evalErr(t, "inner_product", vec(1), vec(1, 2))
}

func TestTransInverseDiag(t *testing.T) {
	m := mat(t, [][]float64{{1, 2}, {3, 4}})
	if got := eval(t, "trans_matrix", m); !got.Equal(mat(t, [][]float64{{1, 3}, {2, 4}})) {
		t.Fatalf("trans = %v", got)
	}
	inv := eval(t, "matrix_inverse", m)
	prod := eval(t, "matrix_multiply", m, inv)
	if !prod.Mat.EqualApprox(linalg.Identity(2), 1e-12) {
		t.Fatalf("inverse: m*inv = %v", prod)
	}
	if got := eval(t, "diag", m); !got.Equal(vec(1, 4)) {
		t.Fatalf("diag = %v", got)
	}
	if got := eval(t, "diag_matrix", vec(5, 6)); !got.Equal(mat(t, [][]float64{{5, 0}, {0, 6}})) {
		t.Fatalf("diag_matrix = %v", got)
	}
	evalErr(t, "diag", mat(t, [][]float64{{1, 2, 3}, {4, 5, 6}}))
	evalErr(t, "matrix_inverse", mat(t, [][]float64{{1, 1}, {1, 1}}))
}

func TestRowColMatrix(t *testing.T) {
	rm := eval(t, "row_matrix", vec(1, 2, 3))
	if rm.Mat.Rows != 1 || rm.Mat.Cols != 3 {
		t.Fatalf("row_matrix shape %dx%d", rm.Mat.Rows, rm.Mat.Cols)
	}
	cm := eval(t, "col_matrix", vec(1, 2, 3))
	if cm.Mat.Rows != 3 || cm.Mat.Cols != 1 {
		t.Fatalf("col_matrix shape %dx%d", cm.Mat.Rows, cm.Mat.Cols)
	}
}

func TestLabels(t *testing.T) {
	ls := eval(t, "label_scalar", value.Double(2.5), value.Int(7))
	if ls.Kind != value.KindLabeledScalar || ls.D != 2.5 || ls.Label != 7 {
		t.Fatalf("label_scalar = %+v", ls)
	}
	// INTEGER promotes to DOUBLE in the first argument.
	ls = eval(t, "label_scalar", value.Int(3), value.Int(1))
	if ls.D != 3 {
		t.Fatalf("label_scalar int = %+v", ls)
	}
	lv := eval(t, "label_vector", vec(1, 2), value.Int(4))
	if lv.Label != 4 || !lv.Vec.Equal(linalg.VectorOf(1, 2)) {
		t.Fatalf("label_vector = %+v", lv)
	}
	if got := eval(t, "get_label", lv); got.I != 4 {
		t.Fatalf("get_label = %v", got)
	}
	if got := eval(t, "get_label", ls); got.I != 1 {
		t.Fatalf("get_label scalar = %v", got)
	}
	evalErr(t, "get_label", value.Double(1))
}

func TestElementAccess(t *testing.T) {
	if got := eval(t, "get_scalar", vec(10, 20, 30), value.Int(1)); got.D != 20 {
		t.Fatalf("get_scalar = %v", got)
	}
	evalErr(t, "get_scalar", vec(10), value.Int(5))
	evalErr(t, "get_scalar", vec(10), value.Int(-1))

	m := mat(t, [][]float64{{1, 2}, {3, 4}})
	if got := eval(t, "get_entry", m, value.Int(1), value.Int(0)); got.D != 3 {
		t.Fatalf("get_entry = %v", got)
	}
	evalErr(t, "get_entry", m, value.Int(2), value.Int(0))
	if got := eval(t, "get_row", m, value.Int(0)); !got.Equal(vec(1, 2)) {
		t.Fatalf("get_row = %v", got)
	}
	if got := eval(t, "get_col", m, value.Int(1)); !got.Equal(vec(2, 4)) {
		t.Fatalf("get_col = %v", got)
	}
	evalErr(t, "get_row", m, value.Int(9))
	evalErr(t, "get_col", m, value.Int(9))
}

func TestShapeIntrospection(t *testing.T) {
	if got := eval(t, "vector_size", vec(1, 2, 3)); got.I != 3 {
		t.Fatalf("vector_size = %v", got)
	}
	m := mat(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if eval(t, "matrix_rows", m).I != 2 || eval(t, "matrix_cols", m).I != 3 {
		t.Fatal("matrix_rows/cols wrong")
	}
}

func TestReductions(t *testing.T) {
	if eval(t, "sum_vector", vec(1, 2, 3)).D != 6 {
		t.Fatal("sum_vector")
	}
	m := mat(t, [][]float64{{1, 2}, {3, 4}})
	if eval(t, "sum_matrix", m).D != 10 {
		t.Fatal("sum_matrix")
	}
	if eval(t, "min_vector", vec(3, 1, 2)).D != 1 || eval(t, "max_vector", vec(3, 1, 2)).D != 3 {
		t.Fatal("min/max_vector")
	}
	if eval(t, "arg_min", vec(3, 1, 2)).I != 1 || eval(t, "arg_max", vec(3, 1, 2)).I != 0 {
		t.Fatal("arg_min/arg_max")
	}
	if eval(t, "trace", m).D != 5 {
		t.Fatal("trace")
	}
	if eval(t, "norm2", vec(3, 4)).D != 5 {
		t.Fatal("norm2")
	}
	if eval(t, "frobenius_norm", mat(t, [][]float64{{3, 4}})).D != 5 {
		t.Fatal("frobenius_norm")
	}
	if !eval(t, "row_mins", m).Equal(vec(1, 3)) {
		t.Fatal("row_mins")
	}
	if !eval(t, "row_maxs", m).Equal(vec(2, 4)) {
		t.Fatal("row_maxs")
	}
	if !eval(t, "row_sums", m).Equal(vec(3, 7)) {
		t.Fatal("row_sums")
	}
	if !eval(t, "col_sums", m).Equal(vec(4, 6)) {
		t.Fatal("col_sums")
	}
	if !eval(t, "min_pairwise", vec(1, 5), vec(2, 4)).Equal(vec(1, 4)) {
		t.Fatal("min_pairwise")
	}
}

func TestConstructors(t *testing.T) {
	id := eval(t, "identity_matrix", value.Int(3))
	if !id.Mat.Equal(linalg.Identity(3)) {
		t.Fatal("identity_matrix")
	}
	z := eval(t, "zeros_vector", value.Int(4))
	if z.Vec.Len() != 4 || z.Vec.Sum() != 0 {
		t.Fatal("zeros_vector")
	}
	zm := eval(t, "zeros_matrix", value.Int(2), value.Int(3))
	if zm.Mat.Rows != 2 || zm.Mat.Cols != 3 || zm.Mat.Sum() != 0 {
		t.Fatal("zeros_matrix")
	}
	evalErr(t, "identity_matrix", value.Int(-1))
	evalErr(t, "zeros_vector", value.Int(-1))
	evalErr(t, "zeros_matrix", value.Int(-1), value.Int(2))
}

func TestScalarMath(t *testing.T) {
	if eval(t, "sqrt", value.Double(9)).D != 3 {
		t.Fatal("sqrt")
	}
	if eval(t, "abs", value.Double(-2)).D != 2 {
		t.Fatal("abs")
	}
	if eval(t, "pow", value.Double(2), value.Double(10)).D != 1024 {
		t.Fatal("pow")
	}
	if eval(t, "ln", eval(t, "exp", value.Double(1))).D != 1 {
		t.Fatal("ln/exp")
	}
}

func TestSignaturesAttached(t *testing.T) {
	// Every builtin must carry a usable signature; spot check the key one.
	b, _ := Lookup("matrix_multiply")
	res, _, err := b.Sig.Unify([]types.T{
		types.TMatrix(types.KnownDim(10), types.KnownDim(100000)),
		types.TMatrix(types.KnownDim(100000), types.KnownDim(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "MATRIX[10][100]" {
		t.Fatalf("matrix_multiply result = %s", res)
	}
	for _, n := range Names() {
		b, _ := Lookup(n)
		if len(b.Sig.Params) == 0 && !strings.HasPrefix(n, "rand") {
			t.Errorf("builtin %q has empty signature", n)
		}
	}
}

// TestSumMatrixChunkAssociation pins sum_matrix's association: the entries
// are summed left to right within fixed 32 Ki-entry chunks, and the chunk
// partials are added in ascending order. The matrix spans three chunk
// boundaries, and the test checks that plain left-to-right summation gives
// other bits on the same data, so a switch to it cannot pass.
func TestSumMatrixChunkAssociation(t *testing.T) {
	const chunk = 1 << 15
	rng := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(100, 1000)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	if len(m.Data) <= 3*chunk {
		t.Fatalf("%d entries span fewer than 3 chunk boundaries", len(m.Data))
	}
	var want float64
	for lo := 0; lo < len(m.Data); lo += chunk {
		var partial float64
		for _, x := range m.Data[lo:min(lo+chunk, len(m.Data))] {
			partial += x
		}
		if lo == 0 {
			want = partial
		} else {
			want += partial
		}
	}
	var flat float64
	for _, x := range m.Data {
		flat += x
	}
	if math.Float64bits(flat) == math.Float64bits(want) {
		t.Fatalf("left-to-right and chunked sums agree (%v): the data cannot tell them apart", want)
	}
	got := eval(t, "sum_matrix", value.Matrix(m)).D
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sum_matrix = %v (%#x), want the chunked sum %v (%#x); left to right is %v",
			got, math.Float64bits(got), want, math.Float64bits(want), flat)
	}
}
