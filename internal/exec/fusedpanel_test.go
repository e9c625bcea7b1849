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

// The panelled SUM(outer_product) state is pinned to the sequence it
// replaces: one OuterAddInto per non-NULL row, in row order. Every comparison
// here is by math.Float64bits.

// outerSumAgg is SUM(outer_product(c<ai>, c<bi>)) with no GROUP BY.
func outerSumAgg(ai, bi int) *plan.Agg {
	spec, _ := builtins.LookupAgg("sum")
	fn, _ := builtins.Lookup("outer_product")
	vecT := types.TVector(types.UnknownDim)
	matT := types.TMatrix(types.UnknownDim, types.UnknownDim)
	call := &plan.Call{Fn: fn, Args: []plan.Expr{col(ai, vecT), col(bi, vecT)}, T: matT}
	return &plan.Agg{
		Aggs: []plan.AggCall{{Spec: spec, Input: call, T: matT}},
		Out:  plan.Schema{{Name: "s", T: matT}},
	}
}

var panelSpecials = []float64{math.NaN(), math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, 1e200, -1e200}

// panelVec draws a d-vector; with special set, one row in four carries IEEE
// specials (two different NaN payloads among them) or a 0 right next to an
// Inf, whose product has to come out NaN.
func panelVec(r *rand.Rand, d int, special bool) *linalg.Vector {
	v := linalg.NewVector(d)
	for i := range v.Data {
		v.Data[i] = r.NormFloat64()
	}
	if !special {
		return v
	}
	switch r.Intn(8) {
	case 0:
		for n := 1 + r.Intn(3); n > 0; n-- {
			v.Data[r.Intn(d)] = panelSpecials[r.Intn(len(panelSpecials))]
		}
	case 1:
		i := r.Intn(d)
		v.Data[i] = 0
		v.Data[(i+1)%d] = math.Inf(1)
	}
	return v
}

// panelRows builds n two-column rows of d-vectors plus interleaved rows with
// a NULL in one column. mode "same" puts one vector in both columns, "distinct"
// two, and "mixed" switches from one to two part-way and back for single rows.
func panelRows(r *rand.Rand, n, d int, mode string, special bool) []value.Row {
	var rows []value.Row
	split := r.Intn(n + 1)
	for i := 0; i < n; i++ {
		if r.Intn(5) == 0 {
			null := value.Row{value.Vector(panelVec(r, d, special)), value.Vector(panelVec(r, d, special))}
			null[r.Intn(2)] = value.Null()
			rows = append(rows, null)
		}
		a := panelVec(r, d, special)
		b := a
		if mode == "distinct" || (mode == "mixed" && i >= split && r.Intn(4) != 0) {
			b = panelVec(r, d, special)
		}
		rows = append(rows, value.Row{value.Vector(a), value.Vector(b)})
	}
	if n == 0 {
		rows = append(rows, value.Row{value.Null(), value.Null()})
	}
	return rows
}

// rank1Sum is rank1Into from nothing: NULL (nil) when no row counts.
func rank1Sum(t *testing.T, rows []value.Row, ai, bi int) *linalg.Matrix {
	t.Helper()
	for _, row := range rows {
		if row[ai].IsNull() || row[bi].IsNull() {
			continue
		}
		acc := linalg.NewMatrix(row[ai].Vec.Len(), row[bi].Vec.Len())
		if err := rank1Into(acc, rows, ai, bi); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	return nil
}

func sameBits(a, b *linalg.Matrix) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one side is NULL: %v vs %v", a == nil, b == nil)
	}
	if a == nil {
		return nil
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("%dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, x := range a.Data {
		if math.Float64bits(x) != math.Float64bits(b.Data[i]) {
			return fmt.Errorf("entry (%d,%d): %x vs %x", i/a.Cols, i%a.Cols, math.Float64bits(x), math.Float64bits(b.Data[i]))
		}
	}
	return nil
}

// aggregateOne runs one partition's local aggregation and returns the single
// group's fused state.
func aggregateOne(t *testing.T, a *plan.Agg, rows []value.Row) (*builtins.FusedSumState, error) {
	t.Helper()
	ps := newPartStage(testCtx(memSource{}), &stage{limit: -1, agg: a}, 0, nil)
	defer ps.release()
	if err := ps.rows(rows); err != nil {
		return nil, err
	}
	groups, err := ps.seal()
	if err != nil {
		return nil, err
	}
	if groups.len() != 1 {
		t.Fatalf("%d groups, want 1", groups.len())
	}
	return (*groups.aggs[0].states.at(0)).(*builtins.FusedSumState), nil
}

func matOf(t *testing.T, st builtins.AggState) *linalg.Matrix {
	t.Helper()
	v, err := st.Final()
	if err != nil {
		t.Fatal(err)
	}
	if v.IsNull() {
		return nil
	}
	return v.Mat
}

func TestPanelledOuterSumEqualsRank1Sequence(t *testing.T) {
	for _, d := range []int{1, 7, 100} {
		k := linalg.OuterPanelRows(d, d)
		for _, n := range []int{0, 1, k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1, 3*k + 5} {
			for _, mode := range []string{"same", "distinct", "mixed"} {
				for _, special := range []bool{false, true} {
					r := rand.New(rand.NewSource(int64(d*1000 + n)))
					rows := panelRows(r, n, d, mode, special)
					ai, bi := 0, 1
					if mode == "same" {
						bi = 0
					}
					want := rank1Sum(t, rows, ai, bi)
					for _, w := range []int{1, 3, 1024} {
						SetWindow(t, w)
						name := fmt.Sprintf("d=%d n=%d %s special=%v window=%d", d, n, mode, special, w)
						st, err := aggregateOne(t, outerSumAgg(ai, bi), rows)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if fields(st).n != 0 || fields(st).stale {
							t.Fatalf("%s: aggregate returned an unsealed state (n=%d stale=%v)", name, fields(st).n, fields(st).stale)
						}
						if n > 2*k && !special && mode != "mixed" && (!fields(st).pa || (mode == "same") != (!fields(st).pb)) {
							t.Fatalf("%s: panels pa=%v pb=%v", name, fields(st).pa, fields(st).pb)
						}
						if err := sameBits(matOf(t, st), want); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// TestPanelledOuterSumSmallGroupsAllocateNoPanel: a group that never absorbs
// more rows than one panel holds stays on direct rank-1 updates.
func TestPanelledOuterSumSmallGroupsAllocateNoPanel(t *testing.T) {
	d := 7
	k := linalg.OuterPanelRows(d, d)
	rows := panelRows(rand.New(rand.NewSource(1)), k, d, "distinct", false)
	st, err := aggregateOne(t, outerSumAgg(0, 1), rows)
	if err != nil {
		t.Fatal(err)
	}
	if fields(st).pa || fields(st).pb {
		t.Fatal("a group of OuterPanelRows rows allocated a panel")
	}
}

func TestPanelledOuterSumShapeErrorAtItsRow(t *testing.T) {
	d := 7
	k := linalg.OuterPanelRows(d, d)
	r := rand.New(rand.NewSource(2))
	rows := panelRows(r, k+k/2, d, "same", false) // the panel is half full
	badAt := len(rows)
	bad := panelVec(r, d+1, false)
	rows = append(rows, value.Row{value.Vector(bad), value.Null()})
	rows = append(rows, panelRows(r, 3, d, "same", false)...)
	wantErr := bad.OuterAddInto(linalg.NewMatrix(d, d), bad)
	for _, w := range []int{1, 3, 1024} {
		SetWindow(t, w)
		_, err := aggregateOne(t, outerSumAgg(0, 0), rows)
		if !errors.Is(err, linalg.ErrShape) || err.Error() != wantErr.Error() {
			t.Fatalf("window=%d: got %v, want %v", w, err, wantErr)
		}
	}
	// Stepping directly: every other row is accepted, the bad one is refused
	// at its position, and the rows buffered before it are not lost.
	st := newState(outerSumAgg(0, 0).Aggs[0], true).(*builtins.FusedSumState)
	for i, row := range rows {
		if err := st.StepFused(row[0], row[0]); (err != nil) != (i == badAt) {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	good := append(rows[:badAt:badAt], rows[badAt+1:]...)
	if err := sameBits(matOf(t, st), rank1Sum(t, good, 0, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPanelledOuterSumMergeOfHalfFilledStates(t *testing.T) {
	d := 7
	k := linalg.OuterPanelRows(d, d)
	for _, mode := range []string{"same", "distinct"} {
		bi := 1
		if mode == "same" {
			bi = 0
		}
		r := rand.New(rand.NewSource(3))
		left := append(panelRows(r, k+k/2, d, mode, true), panelRows(r, k/3, d, mode, false)...)
		right := append(panelRows(r, 2*k+k/3, d, mode, true), panelRows(r, k/2, d, mode, false)...)
		agg := outerSumAgg(0, bi)
		a := newState(agg.Aggs[0], true).(*builtins.FusedSumState)
		b := newState(agg.Aggs[0], true).(*builtins.FusedSumState)
		for _, row := range left {
			if err := a.StepFused(row[0], row[bi]); err != nil {
				t.Fatal(err)
			}
		}
		for _, row := range right {
			if err := b.StepFused(row[0], row[bi]); err != nil {
				t.Fatal(err)
			}
		}
		if fields(a).n == 0 || fields(b).n == 0 {
			t.Fatalf("%s: panels are not half filled (%d, %d rows buffered)", mode, fields(a).n, fields(b).n)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		want := rank1Sum(t, left, 0, bi)
		if err := want.AddInPlace(rank1Sum(t, right, 0, bi)); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(matOf(t, a), want); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		// Rows stepped after the merge land on a current accumulator.
		more := panelRows(r, 2*k, d, mode, false)
		for _, row := range more {
			if err := a.StepFused(row[0], row[bi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := rank1Into(want, more, 0, bi); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(matOf(t, a), want); err != nil {
			t.Fatalf("%s after more rows: %v", mode, err)
		}
	}
}

// rank1Into is the reference: the plain OuterAddInto sequence.
func rank1Into(acc *linalg.Matrix, rows []value.Row, ai, bi int) error {
	for _, row := range rows {
		if row[ai].IsNull() || row[bi].IsNull() {
			continue
		}
		if err := row[ai].Vec.OuterAddInto(acc, row[bi].Vec); err != nil {
			return err
		}
	}
	return nil
}

func TestPanelledOuterSumStepAllocatesNothing(t *testing.T) {
	d := 16
	k := linalg.OuterPanelRows(d, d)
	for _, mode := range []string{"same", "distinct"} {
		bi := 1
		if mode == "same" {
			bi = 0
		}
		rows := panelRows(rand.New(rand.NewSource(4)), k+1, d, mode, false)
		st := newState(outerSumAgg(0, bi).Aggs[0], true).(*builtins.FusedSumState)
		for _, row := range rows {
			if err := st.StepFused(row[0], row[bi]); err != nil {
				t.Fatal(err)
			}
		}
		if !fields(st).pa {
			t.Fatal("no panel after OuterPanelRows+1 rows")
		}
		i := 0
		allocs := testing.AllocsPerRun(3*k, func() {
			row := rows[i%len(rows)]
			if err := st.StepFused(row[0], row[bi]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per StepFused with the panel in place", mode, allocs)
		}
	}
}
