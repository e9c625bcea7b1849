package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// The fused Gram sum SUM(matrix_multiply(trans_matrix(X), X)) is pinned to
// the sequence it replaces: one MulMatAddInto(Transpose(X), X) per non-NULL
// row, in row order. Every comparison here is by math.Float64bits.

// gramSumAgg is SUM(matrix_multiply(trans_matrix(c0), c0)) grouped by c1.
func gramSumAgg() *plan.Agg {
	spec, _ := builtins.LookupAgg("sum")
	mm, _ := builtins.Lookup("matrix_multiply")
	tr, _ := builtins.Lookup("trans_matrix")
	matT := types.TMatrix(types.UnknownDim, types.UnknownDim)
	x := col(0, matT)
	call := &plan.Call{Fn: mm, Args: []plan.Expr{&plan.Call{Fn: tr, Args: []plan.Expr{x}, T: matT}, x}, T: matT}
	return &plan.Agg{
		GroupBy: []plan.Expr{col(1, types.TInt)},
		Aggs:    []plan.AggCall{{Spec: spec, Input: call, T: matT}},
		Out:     plan.Schema{{Name: "g", T: types.TInt}, {Name: "s", T: matT}},
	}
}

// gramBlock draws a sparse d-wide block of 4 to 9 rows. With special set,
// entry (0, d-1) is one of NaN, ±Inf while columns 0 and 1 are zero in the
// first four rows: mulMatBlock skips those 0·special products, the triangle
// kernel would not.
func gramBlock(r *rand.Rand, d int, special bool) *linalg.Matrix {
	x := linalg.NewMatrix(4+r.Intn(6), d)
	for i := range x.Data {
		if r.Intn(3) == 0 {
			x.Data[i] = r.NormFloat64()
		}
	}
	if special {
		for i := 0; i < 4; i++ {
			x.Data[i*d] = 0
			if d > 1 {
				x.Data[i*d+1] = 0
			}
		}
		x.Data[d-1] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	}
	return x
}

// gramRows builds n rows (X, g) over the given number of groups, with NULL
// rows mixed in and the special block at row special (-1: none).
func gramRows(r *rand.Rand, n, d, groups, special int) []value.Row {
	var rows []value.Row
	for i := 0; i < n; i++ {
		g := value.Int(int64(r.Intn(groups)))
		if r.Intn(5) == 0 {
			rows = append(rows, value.Row{value.Null(), g})
		}
		rows = append(rows, value.Row{value.Matrix(gramBlock(r, d, i == special)), g})
	}
	return rows
}

// mulSeqInto is the reference: the plain MulMatAddInto(Xᵀ, X) sequence over
// the non-NULL rows of group g (every group when g is NULL).
func mulSeqInto(acc *linalg.Matrix, rows []value.Row, g value.Value) error {
	for _, row := range rows {
		if row[0].IsNull() || (!g.IsNull() && row[1].I != g.I) {
			continue
		}
		if err := row[0].Mat.Transpose().MulMatAddInto(acc, row[0].Mat); err != nil {
			return err
		}
	}
	return nil
}

// mulSeq is mulSeqInto from nothing: NULL (nil) when no row counts.
func mulSeq(t *testing.T, rows []value.Row, g value.Value) *linalg.Matrix {
	t.Helper()
	for _, row := range rows {
		if row[0].IsNull() || (!g.IsNull() && row[1].I != g.I) {
			continue
		}
		acc := linalg.NewMatrix(row[0].Mat.Cols, row[0].Mat.Cols)
		if err := mulSeqInto(acc, rows, g); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	return nil
}

// aggregateGroups runs one partition's local aggregation and returns each
// group's key and fused state, in id order (first appearance).
func aggregateGroups(t *testing.T, a *plan.Agg, rows []value.Row) ([]value.Value, []*builtins.FusedSumState, error) {
	t.Helper()
	ps := newPartStage(testCtx(memSource{}), &stage{limit: -1, agg: a}, 0, nil)
	defer ps.release()
	if err := ps.rows(rows); err != nil {
		return nil, nil, err
	}
	groups, err := ps.seal()
	if err != nil {
		return nil, nil, err
	}
	var keys []value.Value
	var states []*builtins.FusedSumState
	for id := int32(0); id < groups.len(); id++ {
		kc, lane := groups.keys.col(0, id)
		keys = append(keys, kc.Value(lane))
		states = append(states, (*groups.aggs[0].states.at(id)).(*builtins.FusedSumState))
	}
	return keys, states, nil
}

func TestFusedGramSumEqualsMulMatSequence(t *testing.T) {
	for _, d := range []int{1, 3, 8, 33} {
		for _, n := range []int{1, 5, 40} {
			for _, groups := range []int{1, 3} {
				for _, where := range []string{"never", "early", "late"} {
					special := map[string]int{"never": -1, "early": 1 % n, "late": n - 1}[where]
					r := rand.New(rand.NewSource(int64(d*1000 + n*10 + groups)))
					rows := gramRows(r, n, d, groups, special)
					for _, w := range []int{1, 3, 1024} {
						SetWindow(t, w)
						name := fmt.Sprintf("d=%d n=%d groups=%d special=%s window=%d", d, n, groups, where, w)
						keys, states, err := aggregateGroups(t, gramSumAgg(), rows)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i, st := range states {
							if fields(st).stale {
								t.Fatalf("%s: aggregate returned an unsealed state", name)
							}
							if where == "never" && fields(st).acc && !fields(st).sym {
								t.Fatalf("%s: a finite group left the triangle kernel", name)
							}
							if err := sameBits(matOf(t, st), mulSeq(t, rows, keys[i])); err != nil {
								t.Fatalf("%s group %v: %v", name, keys[i], err)
							}
						}
					}
				}
			}
		}
	}
}

func TestFusedGramSumShapeErrorAtItsRow(t *testing.T) {
	d := 7
	r := rand.New(rand.NewSource(2))
	rows := gramRows(r, 6, d, 1, -1)
	badAt := len(rows)
	bad := gramBlock(r, d+1, false)
	rows = append(rows, value.Row{value.Matrix(bad), value.Int(0)})
	rows = append(rows, gramRows(r, 3, d, 1, -1)...)
	wantErr := bad.Transpose().MulMatAddInto(linalg.NewMatrix(d, d), bad)
	for _, w := range []int{1, 3, 1024} {
		SetWindow(t, w)
		_, _, err := aggregateGroups(t, gramSumAgg(), rows)
		if !errors.Is(err, linalg.ErrShape) || err.Error() != wantErr.Error() {
			t.Fatalf("window=%d: got %v, want %v", w, err, wantErr)
		}
	}
	// Stepping directly: every other row is accepted, the bad one is refused
	// at its position, and the rows before it are not lost.
	st := newState(gramSumAgg().Aggs[0], true).(*builtins.FusedSumState)
	for i, row := range rows {
		if err := st.StepFused(row[0], row[0]); (err != nil) != (i == badAt) {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	good := append(rows[:badAt:badAt], rows[badAt+1:]...)
	if err := sameBits(matOf(t, st), mulSeq(t, good, value.Null())); err != nil {
		t.Fatal(err)
	}
}

// TestFusedGramSumInheritedAccumulators: a state that merged or adopted
// half-filled Gram states keeps the triangle.
func TestFusedGramSumInheritedAccumulators(t *testing.T) {
	d := 9
	r := rand.New(rand.NewSource(3))
	call := gramSumAgg().Aggs[0]
	fill := func(rows []value.Row) *builtins.FusedSumState {
		st := newState(call, true).(*builtins.FusedSumState)
		for _, row := range rows {
			if err := st.StepFused(row[0], row[0]); err != nil {
				t.Fatal(err)
			}
		}
		if !fields(st).stale {
			t.Fatal("a finite Gram state is not on the triangle kernel")
		}
		return st
	}
	left, right, more := gramRows(r, 7, d, 1, -1), gramRows(r, 5, d, 1, -1), gramRows(r, 6, d, 1, -1)

	// Merge of two half-filled states, then more rows.
	a := fill(left)
	if err := a.Merge(fill(right)); err != nil {
		t.Fatal(err)
	}
	want := mulSeq(t, left, value.Null())
	if err := want.AddInPlace(mulSeq(t, right, value.Null())); err != nil {
		t.Fatal(err)
	}
	for _, row := range more {
		if err := a.StepFused(row[0], row[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mulSeqInto(want, more, value.Null()); err != nil {
		t.Fatal(err)
	}
	if !fields(a).sym {
		t.Fatal("merging two finite Gram states left the triangle kernel")
	}
	if err := sameBits(matOf(t, a), want); err != nil {
		t.Fatalf("merged: %v", err)
	}

	// An empty state adopting a half-filled one, then more rows.
	c := newState(call, true).(*builtins.FusedSumState)
	if err := c.Merge(fill(right)); err != nil {
		t.Fatal(err)
	}
	for _, row := range more {
		if err := c.StepFused(row[0], row[0]); err != nil {
			t.Fatal(err)
		}
	}
	want = mulSeq(t, right, value.Null())
	if err := mulSeqInto(want, more, value.Null()); err != nil {
		t.Fatal(err)
	}
	if err := sameBits(matOf(t, c), want); err != nil {
		t.Fatalf("adopted: %v", err)
	}
}
