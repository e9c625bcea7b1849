package exec

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// FuzzGroupBy is a differential test of grouping. The fuzz bytes decode into
// (key, DOUBLE, INTEGER) rows: the key is an INTEGER, DOUBLE or STRING column
// whose lanes include NULL (and NaN, ±Inf, −0 and +0, or 2⁵³ and 2⁵³+1), the
// DOUBLE a small integer, −0, NaN, ±Inf or NULL, so no sum depends on its
// summation order, and the INTEGER a small integer, 2⁵³, 2⁵³+1 or NULL.
// Grouped COUNT(*), COUNT, SUM, AVG, MIN and MAX of the DOUBLE and MIN and MAX
// of the INTEGER run on a 2×2 cluster at windows of 1, 3 and 1024 rows, which
// must agree byte for byte, and match a naive oracle bit for bit: groups
// formed by key equality, each partition stepping its rows in order through
// the aggregates' boxed states (AggSpec.New), and the partitions' states of a
// group merging in partition order, as the executor's do. A NaN key is its own
// group. MIN and MAX keep the first value seen on ties (−0 and +0, 2⁵³ and
// 2⁵³+1) and on NaN, with its kind, so where the rows land decides which
// value of the group they return: the oracle places rows as the cluster does.
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
			ctx, q := groupByQuery(t, kt, rows)
			got := mustRows(t, ctx, q)
			enc := value.EncodeRows(got)
			if first == nil {
				first = enc
				if err := matchOracle(got, groupByOracle(t, rows, ctx.Cluster.Partitions())); err != nil {
					t.Fatalf("%s key, %d rows: %v", kt, len(rows), err)
				}
			} else if !bytes.Equal(enc, first) {
				t.Fatalf("window %d: result differs from window 1", w)
			}
		}
	})
}

// groupByRows decodes b: the first byte picks the key type, and each later
// pair of bytes is one row's key and values.
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
		case 4:
			val = value.Double(math.Copysign(0, -1))
		default:
			val = value.Double(float64(int(v>>3)%7 - 3))
		}
		ival := value.Null()
		switch x := (v>>3 ^ k>>3) % 8; {
		case x == 0:
		case x <= 2:
			ival = value.Int(1<<53 + int64(x-1)) // equal as doubles
		default:
			ival = value.Int(int64(x) - 5)
		}
		rows = append(rows, value.Row{key, val, ival})
	}
	return kt, rows
}

// groupByAggs are the aggregates FuzzGroupBy runs, each over column col of
// the rows: COUNT(*) (col 0, unread), then the DOUBLE's, then the INTEGER's.
var groupByAggs = []struct {
	name string
	col  int
}{{"count", 0}, {"count", 1}, {"sum", 1}, {"avg", 1}, {"min", 1}, {"max", 1}, {"min", 2}, {"max", 2}}

// groupByQuery groups rows, placed round-robin on a 2×2 cluster, by the key.
func groupByQuery(t *testing.T, kt types.T, rows []value.Row) (*Context, *plan.Agg) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["t"] = ctx.Cluster.ScatterRoundRobin(rows)
	colTypes := []types.T{kt, types.TDouble, types.TInt}
	s := scanNode("t", int64(len(rows)), catalog.Column{Name: "k", Type: kt},
		catalog.Column{Name: "v", Type: types.TDouble}, catalog.Column{Name: "i", Type: types.TInt})
	q := &plan.Agg{Input: s, GroupBy: []plan.Expr{col(0, kt)}, Out: plan.Schema{{Name: "k", T: kt}}}
	for j, a := range groupByAggs {
		c := plan.AggCall{Spec: mustLookupAgg(t, a.name), T: colTypes[a.col]}
		if j > 0 {
			c.Input = col(a.col, colTypes[a.col])
		}
		switch a.name {
		case "count":
			c.T = types.TInt
		case "avg":
			c.T = types.TDouble
		}
		q.Aggs = append(q.Aggs, c)
		q.Out = append(q.Out, plan.Field{Name: fmt.Sprintf("a%d", j), T: c.T})
	}
	return ctx, q
}

// oracleGroup is one group of the oracle: its key and its states, stepped in
// input order within each partition.
type oracleGroup struct {
	key    value.Value
	states [][]builtins.AggState // [partition][aggregate]
	used   bool
}

// groupByOracle groups rows by key equality; row i lies on partition i%parts,
// as ScatterRoundRobin places it.
func groupByOracle(t *testing.T, rows []value.Row, parts int) []*oracleGroup {
	var groups []*oracleGroup
	for i, r := range rows {
		var g *oracleGroup
		for _, c := range groups {
			if value.KeyEqual(value.Row{c.key}, r, []int{0}, []int{0}) {
				g = c
				break
			}
		}
		if g == nil {
			g = &oracleGroup{key: r[0], states: make([][]builtins.AggState, parts)}
			groups = append(groups, g)
		}
		p := i % parts
		if g.states[p] == nil {
			for _, a := range groupByAggs {
				g.states[p] = append(g.states[p], mustLookupAgg(t, a.name).New())
			}
		}
		for j, st := range g.states[p] {
			arg := r[groupByAggs[j].col]
			if j == 0 {
				arg = value.Int(1)
			}
			if err := st.Step(arg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return groups
}

// matchOracle pairs each result row with an unused oracle group of an equal
// key and the same aggregates.
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

// matches reports whether aggs are, bit for bit, the group's aggregates: its
// partitions' states merged in partition order.
func (g *oracleGroup) matches(aggs []value.Value) bool {
	var merged []builtins.AggState
	for _, states := range g.states {
		if states == nil {
			continue
		}
		if merged == nil {
			merged = states
			continue
		}
		for j, st := range states {
			if err := merged[j].Merge(st); err != nil {
				return false
			}
		}
	}
	for j, st := range merged {
		want, err := st.Final()
		if err != nil || !sameScalar(aggs[j], want) {
			return false
		}
	}
	return true
}

// sameScalar reports whether a and b are the same scalar: the same kind and the
// same integer or the same float64 bits.
func sameScalar(a, b value.Value) bool {
	if a.Kind == value.KindDouble && b.Kind == value.KindDouble {
		return math.Float64bits(a.D) == math.Float64bits(b.D)
	}
	return a.Equal(b)
}
