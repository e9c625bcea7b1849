package value

import (
	"math"
	"testing"

	"relalg/internal/linalg"
)

func TestConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Int(7), KindInt},
		{Double(2.5), KindDouble},
		{String_("hi"), KindString},
		{Vector(linalg.VectorOf(1, 2)), KindVector},
		{Matrix(linalg.Identity(2)), KindMatrix},
		{LabeledScalar(1.5, 3), KindLabeledScalar},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind, c.kind)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Fatal("IsNull misbehaves")
	}
	if Vector(linalg.VectorOf(1)).Label != -1 {
		t.Fatal("default vector label should be -1")
	}
	if LabeledVector(linalg.VectorOf(1), 9).Label != 9 {
		t.Fatal("LabeledVector label lost")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindDouble: "DOUBLE", KindString: "STRING", KindVector: "VECTOR",
		KindMatrix: "MATRIX", KindLabeledScalar: "LABELED_SCALAR",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestAsDoubleAsInt(t *testing.T) {
	if d, err := Int(3).AsDouble(); err != nil || d != 3 {
		t.Fatalf("Int.AsDouble = %g, %v", d, err)
	}
	if d, err := Double(2.5).AsDouble(); err != nil || d != 2.5 {
		t.Fatalf("Double.AsDouble = %g, %v", d, err)
	}
	if d, err := LabeledScalar(4, 1).AsDouble(); err != nil || d != 4 {
		t.Fatalf("LabeledScalar.AsDouble = %g, %v", d, err)
	}
	if _, err := String_("x").AsDouble(); err == nil {
		t.Fatal("String.AsDouble should fail")
	}
	if i, err := Double(2.9).AsInt(); err != nil || i != 2 {
		t.Fatalf("Double.AsInt = %d, %v", i, err)
	}
	if _, err := Bool(true).AsInt(); err == nil {
		t.Fatal("Bool.AsInt should fail")
	}
}

func TestEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Int(4)) {
		t.Fatal("Int equality broken")
	}
	if Int(3).Equal(Double(3)) {
		t.Fatal("Equal is kind-strict; Int(3) should not Equal Double(3)")
	}
	a := Vector(linalg.VectorOf(1, 2))
	b := Vector(linalg.VectorOf(1, 2))
	if !a.Equal(b) {
		t.Fatal("vector equality broken")
	}
	c := LabeledVector(linalg.VectorOf(1, 2), 5)
	if a.Equal(c) {
		t.Fatal("label should participate in equality")
	}
	if !Matrix(linalg.Identity(2)).Equal(Matrix(linalg.Identity(2))) {
		t.Fatal("matrix equality broken")
	}
	if !LabeledScalar(1, 2).Equal(LabeledScalar(1, 2)) || LabeledScalar(1, 2).Equal(LabeledScalar(1, 3)) {
		t.Fatal("labeled scalar equality broken")
	}
	if !Null().Equal(Null()) {
		t.Fatal("NULL should Equal NULL (for grouping)")
	}
}

func TestCompare(t *testing.T) {
	lt, err := Int(1).Compare(Double(2))
	if err != nil || lt != -1 {
		t.Fatalf("1 vs 2.0 = %d, %v", lt, err)
	}
	eq, err := Int(3).Compare(Double(3))
	if err != nil || eq != 0 {
		t.Fatalf("3 vs 3.0 = %d, %v", eq, err)
	}
	gt, err := String_("b").Compare(String_("a"))
	if err != nil || gt != 1 {
		t.Fatalf("b vs a = %d, %v", gt, err)
	}
	if c, err := Bool(false).Compare(Bool(true)); err != nil || c != -1 {
		t.Fatalf("false vs true = %d, %v", c, err)
	}
	if _, err := Vector(linalg.VectorOf(1)).Compare(Vector(linalg.VectorOf(1))); err == nil {
		t.Fatal("vectors must not be ordered")
	}
	if _, err := Null().Compare(Int(1)); err == nil {
		t.Fatal("NULL comparison must fail")
	}
	if _, err := Int(1).Compare(String_("1")); err == nil {
		t.Fatal("cross-kind comparison must fail")
	}
}

func TestSizeBytes(t *testing.T) {
	if Int(1).SizeBytes() != 8 || Double(1).SizeBytes() != 8 {
		t.Fatal("scalar sizes wrong")
	}
	if got := Vector(linalg.NewVector(10)).SizeBytes(); got != 92 {
		t.Fatalf("vector size = %d, want 92", got)
	}
	if got := Matrix(linalg.NewMatrix(3, 4)).SizeBytes(); got != 8*12+8 {
		t.Fatalf("matrix size = %d", got)
	}
	r := Row{Int(1), Double(2)}
	if r.SizeBytes() != 16 {
		t.Fatalf("row size = %d", r.SizeBytes())
	}
}

func TestRowCloneAndString(t *testing.T) {
	r := Row{Int(1), String_("x")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Fatal("Clone aliases the row")
	}
	if r.String() != "(1, x)" {
		t.Fatalf("Row.String = %q", r.String())
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":       Null(),
		"true":       Bool(true),
		"42":         Int(42),
		"2.5":        Double(2.5),
		"hi":         String_("hi"),
		"[1 2]":      Vector(linalg.VectorOf(1, 2)),
		"3@7":        LabeledScalar(3, 7),
		"[1 0; 0 1]": Matrix(linalg.Identity(2)),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String = %q, want %q", v.String(), want)
		}
	}
}

func TestHashConsistency(t *testing.T) {
	// Numeric kinds hash identically when they compare equal.
	if Int(3).Hash() != Double(3).Hash() {
		t.Fatal("Int(3) and Double(3) must hash alike")
	}
	if Int(3).Hash() == Int(4).Hash() {
		t.Fatal("suspicious collision for 3 and 4")
	}
	if String_("a").Hash() == String_("b").Hash() {
		t.Fatal("suspicious collision for strings")
	}
	v1 := Vector(linalg.VectorOf(1, 2, 3))
	v2 := Vector(linalg.VectorOf(1, 2, 3))
	if v1.Hash() != v2.Hash() {
		t.Fatal("equal vectors must hash alike")
	}
}

// TestHashRowKeyPinned pins the key-tuple hash to literal values, so that a
// change to a per-kind hash or to the fold fails in this package. Every
// placement and exchange computes this hash, so such a change moves rows
// while each consumer still agrees with the others. INTEGER hashes as the
// DOUBLE it rounds to (2⁵³+1 as 2⁵³), −0 as +0, and NULL as 0.
func TestHashRowKeyPinned(t *testing.T) {
	for _, c := range []struct {
		key  Row
		want uint64
	}{
		{Row{Int(0)}, 0xcbd538c6a355aaa0},
		{Row{Int(42)}, 0x13a5dbc7cad96a07},
		{Row{Int(-7)}, 0x28fb7cb884197044},
		{Row{Int(1<<53 + 1)}, 0x04daa0c7dcfcd24b},
		{Row{Double(1.5)}, 0x032ce0c8d122855f},
		{Row{Double(0)}, 0xcbd538c6a355aaa0},
		{Row{Double(math.Copysign(0, -1))}, 0xcbd538c6a355aaa0},
		{Row{Double(math.NaN())}, 0x5584fd5fcaf80dbc},
		{Row{String_("")}, 0x0000000000000000},
		{Row{String_("relalg")}, 0xa376592db1a6188d},
		{Row{Bool(true)}, 0x9b00d55b09f37f33},
		{Row{Bool(false)}, 0xd857611bcf00f0c6},
		{Row{Null()}, 0xcbd538c6a355aaa0},
		{Row{Vector(linalg.VectorOf(1, -2.5, 0))}, 0xe9e9729f9ba1a0db},
		{Row{Int(3), String_("g"), Null()}, 0x794cec8b98062d5d},
	} {
		cols := make([]int, len(c.key))
		for i := range cols {
			cols[i] = i
		}
		if got := HashRowKey(c.key, cols); got != c.want {
			t.Errorf("HashRowKey(%v) = %#016x, want %#016x", c.key, got, c.want)
		}
	}
}

func TestKeyHelpers(t *testing.T) {
	a := Row{Int(1), String_("x"), Double(2)}
	b := Row{Double(1), String_("x"), Int(5)}
	if !KeyEqual(a, b, []int{0, 1}, []int{0, 1}) {
		t.Fatal("numeric key equality across kinds failed")
	}
	if KeyEqual(a, b, []int{2}, []int{2}) {
		t.Fatal("2 should not equal 5")
	}
	if HashRowKey(a, []int{0}) != HashRowKey(b, []int{0}) {
		t.Fatal("key hash must agree for Int(1)/Double(1)")
	}
}
