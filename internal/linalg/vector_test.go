package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestVectorBasics(t *testing.T) {
	v := VectorOf(1, 2, 3)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if v.At(1) != 2 {
		t.Fatalf("At(1) = %g, want 2", v.At(1))
	}
	v.Set(1, 5)
	if v.At(1) != 5 {
		t.Fatalf("after Set, At(1) = %g, want 5", v.At(1))
	}
	c := v.Clone()
	c.Set(0, 99)
	if v.At(0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if got := v.String(); got != "[1 5 3]" {
		t.Fatalf("String = %q", got)
	}
}

func TestVectorElementwise(t *testing.T) {
	a := VectorOf(1, 2, 3)
	b := VectorOf(4, 5, 6)

	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(VectorOf(5, 7, 9)) {
		t.Fatalf("Add = %v", sum)
	}

	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(VectorOf(-3, -3, -3)) {
		t.Fatalf("Sub = %v", diff)
	}

	prod, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(VectorOf(4, 10, 18)) {
		t.Fatalf("Mul = %v", prod)
	}

	quot, err := b.Div(a)
	if err != nil {
		t.Fatal(err)
	}
	if !quot.Equal(VectorOf(4, 2.5, 2)) {
		t.Fatalf("Div = %v", quot)
	}
}

func TestVectorShapeErrors(t *testing.T) {
	a := VectorOf(1, 2)
	b := VectorOf(1, 2, 3)
	ops := []func() error{
		func() error { _, err := a.Add(b); return err },
		func() error { _, err := a.Sub(b); return err },
		func() error { _, err := a.Mul(b); return err },
		func() error { _, err := a.Div(b); return err },
		func() error { _, err := a.Dot(b); return err },
		func() error { _, err := a.MinPairwise(b); return err },
		func() error { _, err := a.MaxPairwise(b); return err },
		func() error { return a.AddInPlace(b) },
	}
	for i, op := range ops {
		if err := op(); !errors.Is(err, ErrShape) {
			t.Errorf("op %d: error = %v, want ErrShape", i, err)
		}
	}
}

func TestVectorScalarOps(t *testing.T) {
	v := VectorOf(2, 4)
	if got := v.Scale(3); !got.Equal(VectorOf(6, 12)) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.ScaleAdd(1); !got.Equal(VectorOf(3, 5)) {
		t.Fatalf("ScaleAdd = %v", got)
	}
	if got := v.ScaleDiv(2); !got.Equal(VectorOf(1, 2)) {
		t.Fatalf("ScaleDiv = %v", got)
	}
	if got := v.ScaleRDiv(8); !got.Equal(VectorOf(4, 2)) {
		t.Fatalf("ScaleRDiv = %v", got)
	}
	if got := v.ScaleRSub(10); !got.Equal(VectorOf(8, 6)) {
		t.Fatalf("ScaleRSub = %v", got)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := VectorOf(1, 2, 3)
	b := VectorOf(4, -5, 6)
	d, err := a.Dot(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 12 {
		t.Fatalf("Dot = %g, want 12", d)
	}
	if n := VectorOf(3, 4).Norm2(); n != 5 {
		t.Fatalf("Norm2 = %g, want 5", n)
	}
}

// TestDotLanesMatchesDot pins each lane of DotLanes to Dot by its bits, over
// entries whose sums depend on their order (magnitudes from denormal to 1e200,
// ±Inf, −0, NaNs with payloads), lane counts on and off a multiple of four,
// nil and sparse selections, and lanes of mixed lengths. Unselected lanes are
// left alone, and a length mismatch inside a group of four is Dot's error.
func TestDotLanesMatchesDot(t *testing.T) {
	special := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 1e200, -1e200,
	}
	r := rand.New(rand.NewSource(1))
	entry := func() float64 {
		if r.Intn(8) == 0 {
			return special[r.Intn(len(special))]
		}
		return (r.Float64() - 0.5) * []float64{1, 1e-3, 1e8}[r.Intn(3)]
	}
	vec := func(n int) *Vector {
		v := NewVector(n)
		for j := range v.Data {
			v.Data[j] = entry()
		}
		return v
	}
	const unset = -12345.5
	for _, length := range []int{0, 1, 3, 4, 5, 100, 101, -1} { // -1: mixed lengths
		for _, lanes := range []int{1, 3, 4, 5, 8, 9, 13} {
			a, b := make([]*Vector, lanes), make([]*Vector, lanes)
			for i := range a {
				n := length
				if n < 0 {
					n = []int{3, 4, 5, 100}[r.Intn(4)]
				}
				a[i], b[i] = vec(n), vec(n)
			}
			var sparse []int32
			for i := 0; i < lanes; i++ {
				if i%3 != 1 {
					sparse = append(sparse, int32(i))
				}
			}
			for _, sel := range [][]int32{nil, sparse, {}} {
				out := make([]float64, lanes)
				for i := range out {
					out[i] = unset
				}
				if err := DotLanes(out, a, b, sel); err != nil {
					t.Fatalf("length %d, %d lanes: %v", length, lanes, err)
				}
				picked := make([]bool, lanes)
				for i := range picked {
					picked[i] = sel == nil
				}
				for _, i := range sel {
					picked[i] = true
				}
				for i, got := range out {
					want := unset
					if picked[i] {
						want, _ = a[i].Dot(b[i])
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("length %d, %d lanes, sel %v: lane %d = %v (%016x), want %v (%016x)",
							length, lanes, sel, i, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	a := []*Vector{vec(4), vec(4), vec(4), vec(4), vec(4)}
	b := []*Vector{vec(4), vec(4), vec(3), vec(5), vec(4)}
	_, want := a[2].Dot(b[2])
	err := DotLanes(make([]float64, 5), a, b, nil)
	if err == nil || err.Error() != want.Error() || !errors.Is(err, ErrShape) {
		t.Fatalf("mismatch in a group of four: %v, want %v", err, want)
	}
}

func TestOuter(t *testing.T) {
	a := VectorOf(1, 2)
	b := VectorOf(3, 4, 5)
	m := a.Outer(b)
	want, _ := MatrixFromRows([][]float64{{3, 4, 5}, {6, 8, 10}})
	if !m.Equal(want) {
		t.Fatalf("Outer = %v", m)
	}
}

func TestOuterAddInto(t *testing.T) {
	a := VectorOf(1, 2)
	dst := NewMatrix(2, 2)
	if err := a.OuterAddInto(dst, a); err != nil {
		t.Fatal(err)
	}
	if err := a.OuterAddInto(dst, a); err != nil {
		t.Fatal(err)
	}
	want, _ := MatrixFromRows([][]float64{{2, 4}, {4, 8}})
	if !dst.Equal(want) {
		t.Fatalf("accumulated outer = %v", dst)
	}
	if err := a.OuterAddInto(NewMatrix(3, 3), a); !errors.Is(err, ErrShape) {
		t.Fatalf("error = %v, want ErrShape", err)
	}
}

func TestVectorReductions(t *testing.T) {
	v := VectorOf(3, -1, 7, 0)
	if s := v.Sum(); s != 9 {
		t.Fatalf("Sum = %g", s)
	}
	if m := v.Min(); m != -1 {
		t.Fatalf("Min = %g", m)
	}
	if m := v.Max(); m != 7 {
		t.Fatalf("Max = %g", m)
	}
	if i := v.ArgMin(); i != 1 {
		t.Fatalf("ArgMin = %d", i)
	}
	if i := v.ArgMax(); i != 2 {
		t.Fatalf("ArgMax = %d", i)
	}
	empty := NewVector(0)
	if !math.IsInf(empty.Min(), 1) || !math.IsInf(empty.Max(), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
	if empty.ArgMin() != -1 || empty.ArgMax() != -1 {
		t.Fatal("empty ArgMin/ArgMax should be -1")
	}
}

func TestMinMaxPairwise(t *testing.T) {
	a := VectorOf(1, 5, 3)
	b := VectorOf(2, 4, 3)
	mn, err := a.MinPairwise(b)
	if err != nil {
		t.Fatal(err)
	}
	if !mn.Equal(VectorOf(1, 4, 3)) {
		t.Fatalf("MinPairwise = %v", mn)
	}
	mx, err := a.MaxPairwise(b)
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Equal(VectorOf(2, 5, 3)) {
		t.Fatalf("MaxPairwise = %v", mx)
	}
}

func TestAsRowColMatrix(t *testing.T) {
	v := VectorOf(1, 2, 3)
	r := v.AsRowMatrix()
	if r.Rows != 1 || r.Cols != 3 || r.At(0, 2) != 3 {
		t.Fatalf("AsRowMatrix = %v", r)
	}
	c := v.AsColMatrix()
	if c.Rows != 3 || c.Cols != 1 || c.At(2, 0) != 3 {
		t.Fatalf("AsColMatrix = %v", c)
	}
	// No shared storage.
	r.Set(0, 0, 42)
	if v.At(0) == 42 {
		t.Fatal("AsRowMatrix shares storage")
	}
}

func TestEqualApproxVector(t *testing.T) {
	a := VectorOf(1, 2)
	b := VectorOf(1+1e-12, 2-1e-12)
	if !a.EqualApprox(b, 1e-9) {
		t.Fatal("EqualApprox should accept tiny differences")
	}
	if a.EqualApprox(VectorOf(1, 3), 1e-9) {
		t.Fatal("EqualApprox accepted wrong values")
	}
	if a.EqualApprox(VectorOf(1), 1) {
		t.Fatal("EqualApprox accepted wrong length")
	}
}
