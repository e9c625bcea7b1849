package exec

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// TestGroupTableAllocs is the allocation gate on bytes per group: a grouped
// SUM, COUNT and AVG over round-robin rows, so every partition holds a share of
// every group and the states move, run once with N and once with 3N distinct
// groups over the same rows. The extra bytes over the extra groups are the
// marginal cost of one group across the local aggregate, the state move and
// the finalize, including its output row. When each group was a heap object
// holding boxed key values and one AggState per aggregate, in a
// map[uint64][]*aggGroup, this measured 797 bytes a group; the gate is half
// of that. About 280 of what is left is the output row and its slot.
func TestGroupTableAllocs(t *testing.T) {
	const rows, n = 24000, 2000
	tables := memSource{}
	ctx := testCtx(tables)
	query := func(name string, groups int) *plan.Agg {
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = value.Row{value.Int(int64(i % groups)), value.Double(float64(i % 9))}
		}
		tables[name] = ctx.Cluster.ScatterRoundRobin(data)
		s := scanNode(name, rows,
			catalog.Column{Name: "g", Type: types.TInt},
			catalog.Column{Name: "x", Type: types.TDouble})
		sum, cnt, avg := mustLookupAgg(t, "sum"), mustLookupAgg(t, "count"), mustLookupAgg(t, "avg")
		return &plan.Agg{Input: s, GroupBy: []plan.Expr{col(0, types.TInt)},
			Aggs: []plan.AggCall{
				{Spec: sum, Input: col(1, types.TDouble), T: types.TDouble},
				{Spec: cnt, T: types.TInt},
				{Spec: avg, Input: col(1, types.TDouble), T: types.TDouble},
			},
			Out: plan.Schema{{Name: "g", T: types.TInt}, {Name: "s", T: types.TDouble}, {Name: "n", T: types.TInt}, {Name: "a", T: types.TDouble}}}
	}
	allocated := func(q *plan.Agg, groups int) float64 {
		run := func() {
			rel, err := Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if rel.NumRows() != groups {
				t.Fatalf("%d groups, want %d", rel.NumRows(), groups)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	few := allocated(query("few", n), n)
	many := allocated(query("many", 3*n), 3*n)
	perGroup := (many - few) / (2 * n)
	t.Logf("%.0f bytes per run at %d groups, %.0f at %d: %.0f bytes per extra group", few, n, many, 3*n, perGroup)
	if perGroup > 398 {
		t.Fatalf("the group table allocates %.0f bytes per group, want <= 398", perGroup)
	}
}

// TestNumExtremeStates: grouped MIN and MAX over INTEGER or DOUBLE keep
// pointer-free NumExtreme states. At windows of 1, 3 and 1024 lanes, a column
// with NULL lanes (generic) and the same values without them (typed) give
// the boxed state's result over the sequence bit for bit: ties (−0 and +0,
// 2⁵³ and 2⁵³+1) and NaN keep the first value seen, with its kind. Merging the
// states of a split sequence matches merging the boxed states, and, over a
// sequence without NaN, stepping it whole.
func TestNumExtremeStates(t *testing.T) {
	big := int64(1) << 53
	nan := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	doubles := func(xs ...float64) []value.Value {
		var out []value.Value
		for _, x := range xs {
			out = append(out, value.Double(x))
		}
		return out
	}
	ints := func(xs ...int64) []value.Value {
		var out []value.Value
		for _, x := range xs {
			out = append(out, value.Int(x))
		}
		return out
	}
	hasNaN := func(vals []value.Value) bool {
		return slices.ContainsFunc(vals, func(v value.Value) bool { return v.Kind == value.KindDouble && math.IsNaN(v.D) })
	}
	for _, tc := range []struct {
		t    types.T
		vals []value.Value
	}{
		{types.TDouble, doubles(3, 0, negZero, 5, nan, negZero, 1)},                     // MIN is +0, MAX 5
		{types.TDouble, doubles(-1, negZero, 0, math.Inf(-1), nan, -5, 0)},              // MAX is −0, MIN −Inf
		{types.TDouble, doubles(nan, 1, math.Inf(1), -1, float64(big), float64(big)+2)}, // NaN first
		{types.TDouble, doubles(float64(big), 2, float64(big)+2, -1, 0, math.Inf(1))},   // no NaN
		{types.TInt, ints(big+1, 5, -big-1, big, -big, -7)},                             // MAX is 2⁵³+1, MIN −2⁵³−1
	} {
		for _, name := range []string{"min", "max"} {
			spec := mustLookupAgg(t, name)
			seq := spec.New()
			for _, v := range tc.vals {
				if err := seq.Step(v); err != nil {
					t.Fatal(err)
				}
			}
			want, _ := seq.Final()
			for _, w := range []int{1, 3, 1024} {
				SetWindow(t, w)
				for _, nulls := range []bool{false, true} {
					var rows []value.Row
					for _, v := range tc.vals {
						if nulls {
							rows = append(rows, value.Row{value.Int(0), value.Null()})
						}
						rows = append(rows, value.Row{value.Int(0), v})
					}
					tables := memSource{}
					ctx := testCtx(tables)
					parts := make([][]value.Row, ctx.Cluster.Partitions())
					parts[0] = rows // one partition steps the whole sequence
					tables["t"] = parts
					s := scanNode("t", int64(len(rows)), catalog.Column{Name: "g", Type: types.TInt}, catalog.Column{Name: "v", Type: tc.t})
					q := &plan.Agg{Input: s, GroupBy: []plan.Expr{col(0, types.TInt)},
						Aggs: []plan.AggCall{{Spec: spec, Input: col(1, tc.t), T: tc.t}},
						Out:  plan.Schema{{Name: "g", T: types.TInt}, {Name: "m", T: tc.t}}}
					if op := newGroupTable(q, nil).aggs[0].op; op != aggExtreme {
						t.Fatalf("%s over %s keeps op %d states", name, tc.t, op)
					}
					got := mustRows(t, ctx, q)
					if len(got) != 1 || !sameScalar(got[0][1], want) {
						t.Fatalf("%s over %s, window %d, NULL lanes %v: %v, want %v", name, tc.t, w, nulls, got, want)
					}
				}
			}
			for k := 0; k <= len(tc.vals); k++ {
				a, b := builtins.NumExtreme{Max: name == "max"}, builtins.NumExtreme{Max: name == "max"}
				boxedA, boxedB := spec.New(), spec.New()
				for i, v := range tc.vals {
					st, boxed := &a, boxedA
					if i >= k {
						st, boxed = &b, boxedB
					}
					if err := st.Step(v); err != nil {
						t.Fatal(err)
					}
					if err := boxed.Step(v); err != nil {
						t.Fatal(err)
					}
				}
				a.Merge(&b)
				if err := boxedA.Merge(boxedB); err != nil {
					t.Fatal(err)
				}
				merged, _ := boxedA.Final()
				if got := a.Final(); !sameScalar(got, merged) || !hasNaN(tc.vals) && !sameScalar(got, want) {
					t.Fatalf("%s over %s split at %d: merged %v, boxed merge %v, sequence %v", name, tc.t, k, got, merged, want)
				}
			}
		}
	}
}

// TestKeyTableCornerCases: the key table finds a key tuple by key equality.
// NULL finds NULL, numeric kinds compare by their double value (2 finds 2.0,
// −0 finds +0, 2⁵³+1 finds 2⁵³), a NaN finds nothing, not even itself, and
// other kinds compare by Value.Equal; a tuple matches only on every position.
func TestKeyTableCornerCases(t *testing.T) {
	big := int64(1) << 53
	cases := []struct {
		name          string
		stored, probe []value.Value
		found         bool
	}{
		{"null", []value.Value{value.Null()}, []value.Value{value.Null()}, true},
		{"strings", []value.Value{value.String_("a")}, []value.Value{value.String_("b")}, false},
		{"int finds double", []value.Value{value.Int(2)}, []value.Value{value.Double(2)}, true},
		{"minus zero", []value.Value{value.Double(math.Copysign(0, -1))}, []value.Value{value.Double(0)}, true},
		{"2^53", []value.Value{value.Int(big)}, []value.Value{value.Int(big + 1)}, true},
		{"nan", []value.Value{value.Double(math.NaN())}, []value.Value{value.Double(math.NaN())}, false},
		{"string is not a number", []value.Value{value.String_("1")}, []value.Value{value.Int(1)}, false},
		{"second position differs", []value.Value{value.Int(1), value.String_("a")}, []value.Value{value.Int(1), value.String_("b")}, false},
		{"tuple", []value.Value{value.Int(1), value.Null()}, []value.Value{value.Double(1), value.Null()}, true},
	}
	// keyCols evaluates vals as one-lane key columns and their hash.
	keyCols := func(vals []value.Value) ([]*value.Col, uint64) {
		row := value.Row(vals)
		cols := make([]*value.Col, len(vals))
		idx := make([]int, len(vals))
		for j := range vals {
			cols[j] = &value.Col{}
			idx[j] = j
		}
		value.GatherMulti([]value.Row{row}, 0, 1, idx, cols)
		return cols, value.HashRowKey(row, idx)
	}
	for _, c := range cases {
		kt := newKeyTable(len(c.stored))
		cols, h := keyCols(c.stored)
		if id := kt.insert(h, cols, 0); id != 0 {
			t.Fatalf("%s: first id %d", c.name, id)
		}
		cols, h = keyCols(c.probe)
		if got := kt.find(h, cols, 0) == 0; got != c.found {
			t.Errorf("%s: found %v, want %v", c.name, got, c.found)
		}
	}
}

// failFinal is an aggregate state whose Final fails.
type failFinal struct{}

var errFinal = errors.New("final fails")

func (failFinal) Step(value.Value) error        { return nil }
func (failFinal) Merge(builtins.AggState) error { return nil }
func (failFinal) Final() (value.Value, error)   { return value.Null(), errFinal }

// TestMovedStateFinalErrorFailsMove: a moved group's wire length includes its
// boxed states' partial values, so a state whose Final fails fails the state
// move itself, which then moves and charges nothing, rather than being left
// out of the bytes shuffled.
func TestMovedStateFinalErrorFailsMove(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = intTable(ctx, 40)
	s := scanNode("t", 40, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	spec := &builtins.AggSpec{Name: "fail_final", New: func() builtins.AggState { return failFinal{} }}
	q := &plan.Agg{Input: s, GroupBy: []plan.Expr{col(1, types.TInt)},
		Aggs: []plan.AggCall{{Spec: spec, Input: col(0, types.TInt), T: types.TInt}},
		Out:  plan.Schema{{Name: "b", T: types.TInt}, {Name: "f", T: types.TInt}}}
	if _, err := Run(ctx, q); !errors.Is(err, errFinal) {
		t.Fatalf("error %v, want %v", err, errFinal)
	}
	if st := ctx.Cluster.Stats().Snapshot(); st.TuplesShuffled != 0 || st.BytesShuffled != 0 {
		t.Fatalf("the failed move charged %d tuples, %d bytes", st.TuplesShuffled, st.BytesShuffled)
	}
}
