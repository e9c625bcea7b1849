package exec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// FuzzGroupBy is a differential test of grouping. The fuzz bytes decode into
// (key, value) rows: the key is an INTEGER, DOUBLE or STRING column whose lanes
// include NULL (and NaN, ±Inf, −0 and +0, or 2⁵³ and 2⁵³+1), the value a DOUBLE
// that is a small integer, NaN, ±Inf or NULL, so no sum depends on its
// summation order. Grouped COUNT(*), COUNT, SUM, AVG, MIN and MAX run on a 2×2
// cluster at windows of 1, 3 and 1024 rows, which must agree byte for byte,
// and match a naive oracle: groups formed in input order by key equality,
// each stepping its rows in order. A NaN key is its own group. Results
// compare NaN equal to NaN. MIN and MAX keep the first value seen on ties and
// on NaN, so a NaN hides the values a partition sees after it: over a group
// holding NaN, they may be NaN or any of the group's values, depending on
// where its rows land and the order the partitions merge in.
func FuzzGroupBy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{1, 0, 0, 8, 1, 16, 2, 24, 3, 3, 4, 11, 5, 19, 6, 27, 7, 4, 8})
	f.Add([]byte{2, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 4, 6, 3, 7, 2, 0, 1, 1, 0})
	f.Add([]byte{1, 3, 5, 4, 5, 3, 6, 4, 6, 0, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		kt, rows := groupByRows(b)
		var first []byte
		for _, w := range []int{1, 3, 1024} {
			SetWindow(t, w)
			got := runGroupBy(t, kt, rows)
			enc := value.EncodeRows(got)
			if first == nil {
				first = enc
				if err := matchOracle(got, groupByOracle(t, rows)); err != nil {
					t.Fatalf("%s key, %d rows: %v", kt, len(rows), err)
				}
			} else if !bytes.Equal(enc, first) {
				t.Fatalf("window %d: result differs from window 1", w)
			}
		}
	})
}

// groupByRows decodes b: the first byte picks the key type, and each later
// pair of bytes is one row's key and value.
func groupByRows(b []byte) (types.T, []value.Row) {
	kt := []types.T{types.TInt, types.TDouble, types.TString}[int(b[0])%3]
	var rows []value.Row
	for i := 1; i+1 < len(b) && len(rows) < 400; i += 2 {
		k, v := b[i], b[i+1]
		key := value.Null()
		small := float64(int(k>>3)%5 - 2)
		switch {
		case k%8 == 7:
		case kt == types.TInt:
			key = value.Int(int64(small))
			if k%8 >= 5 {
				key = value.Int(1<<53 + int64(k%2))
			}
		case kt == types.TDouble:
			key = value.Double([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, small, small}[k%8])
		default:
			key = value.String_(fmt.Sprintf("k%d", int(small)))
		}
		val := value.Null()
		switch v % 8 {
		case 0:
			val = value.Double(math.NaN())
		case 1:
			val = value.Double(math.Inf(1))
		case 2:
			val = value.Double(math.Inf(-1))
		case 3:
		default:
			val = value.Double(float64(int(v>>3)%7 - 3))
		}
		rows = append(rows, value.Row{key, val})
	}
	return kt, rows
}

var groupByAggs = []string{"count", "count", "sum", "avg", "min", "max"} // the first is COUNT(*)

// runGroupBy groups rows, placed round-robin on a 2×2 cluster, by the key.
func runGroupBy(t *testing.T, kt types.T, rows []value.Row) []value.Row {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = ctx.Cluster.ScatterRoundRobin(rows)
	s := scanNode("t", int64(len(rows)), catalog.Column{Name: "k", Type: kt}, catalog.Column{Name: "v", Type: types.TDouble})
	q := &plan.Agg{Input: s, GroupBy: []plan.Expr{col(0, kt)}, Out: plan.Schema{{Name: "k", T: kt}}}
	for j, name := range groupByAggs {
		c := plan.AggCall{Spec: mustLookupAgg(t, name), T: types.TDouble}
		if j > 0 {
			c.Input = col(1, types.TDouble)
		}
		if name == "count" {
			c.T = types.TInt
		}
		q.Aggs = append(q.Aggs, c)
		q.Out = append(q.Out, plan.Field{Name: fmt.Sprintf("a%d", j), T: c.T})
	}
	return mustRows(t, ctx, q)
}

// oracleGroup is one group of the oracle: its key, its states stepped in
// input order, and its values, which its MIN and MAX may be when it holds a
// NaN.
type oracleGroup struct {
	key    value.Value
	states []builtins.AggState
	nan    bool
	vals   []float64
	used   bool
}

// groupByOracle groups rows in input order by key equality.
func groupByOracle(t *testing.T, rows []value.Row) []*oracleGroup {
	var groups []*oracleGroup
	for _, r := range rows {
		var g *oracleGroup
		for _, c := range groups {
			if value.KeyEqual(value.Row{c.key}, r, []int{0}, []int{0}) {
				g = c
				break
			}
		}
		if g == nil {
			g = &oracleGroup{key: r[0]}
			for _, name := range groupByAggs {
				g.states = append(g.states, mustLookupAgg(t, name).New())
			}
			groups = append(groups, g)
		}
		for j, st := range g.states {
			arg := r[1]
			if j == 0 {
				arg = value.Int(1)
			}
			if err := st.Step(arg); err != nil {
				t.Fatal(err)
			}
		}
		if v := r[1]; !v.IsNull() {
			g.nan = g.nan || math.IsNaN(v.D)
			g.vals = append(g.vals, v.D)
		}
	}
	return groups
}

// matchOracle pairs each result row with an unused oracle group of an equal
// key and equal aggregates.
func matchOracle(got []value.Row, groups []*oracleGroup) error {
	if len(got) != len(groups) {
		return fmt.Errorf("%d groups, oracle %d", len(got), len(groups))
	}
	for _, r := range got {
		var g *oracleGroup
		for _, c := range groups {
			if !c.used && sameKeyOrNaN(c.key, r[0]) && c.matches(r[1:]) {
				g = c
				break
			}
		}
		if g == nil {
			return fmt.Errorf("result row %v matches no oracle group", r)
		}
		g.used = true
	}
	return nil
}

// sameKeyOrNaN is key equality, except that a NaN key matches a NaN key.
func sameKeyOrNaN(a, b value.Value) bool {
	if a.Kind == value.KindDouble && b.Kind == value.KindDouble && math.IsNaN(a.D) && math.IsNaN(b.D) {
		return true
	}
	return value.KeyEqual(value.Row{a}, value.Row{b}, []int{0}, []int{0})
}

// matches reports whether aggs are the group's aggregates.
func (g *oracleGroup) matches(aggs []value.Value) bool {
	for j, st := range g.states {
		want, err := st.Final()
		if err != nil {
			return false
		}
		got := aggs[j]
		name := groupByAggs[j]
		if g.nan && (name == "min" || name == "max") {
			if got.Kind != value.KindDouble || !math.IsNaN(got.D) && !slices.Contains(g.vals, got.D) {
				return false
			}
			continue
		}
		if !sameOrBothNaN(got, want) {
			return false
		}
	}
	return true
}

func sameOrBothNaN(a, b value.Value) bool {
	if a.Kind == value.KindDouble && b.Kind == value.KindDouble && math.IsNaN(a.D) && math.IsNaN(b.D) {
		return true
	}
	return a.Equal(b)
}
