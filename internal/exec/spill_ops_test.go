package exec

import (
	"sort"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/fault"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/types"
	"relalg/internal/value"
)

// spillCtx is testCtx plus a memory governor small enough that the operators
// under test actually go out-of-core. The returned func reads the runs the
// committed attempts spilled; callers must Close the manager (and may then
// assert the temp dir is gone).
func spillCtx(t *testing.T, tables memSource, budget int64) (*Context, *spill.Manager, func() int64) {
	t.Helper()
	mgr := spill.NewManager(budget, spill.Hooks{})
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("spill manager close: %v", err)
		}
	})
	cl := cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true})
	ctx := &Context{Cluster: cl, Tables: tables, Timings: NewTimings(), Spill: mgr}
	return ctx, mgr, func() int64 { return ctx.Cluster.Stats().Snapshot().SpillEvents }
}

// wideTable builds n rows of (id, grp, payload-string): the payload makes each
// row heavy enough that small budgets trip mid-operator.
func wideTable(ctx *Context, n int) [][]value.Row {
	rows := make([]value.Row, n)
	pad := make([]byte, 64)
	for i := range pad {
		pad[i] = byte('a' + i%26)
	}
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 7)), value.String_(string(pad))}
	}
	return ctx.Cluster.ScatterRoundRobin(rows)
}

func wideScan(name string, n int64) *plan.Scan {
	return scanNode(name, n,
		catalog.Column{Name: "id", Type: types.TInt},
		catalog.Column{Name: "grp", Type: types.TInt},
		catalog.Column{Name: "pad", Type: types.TString})
}

func mustRows(t *testing.T, ctx *Context, n plan.Node) []value.Row {
	t.Helper()
	rel, err := Run(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows()
}

func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortCanonical orders rows by their full encoded form, for multiset
// comparison of operators that don't promise an output order.
func sortCanonical(rows []value.Row) []value.Row {
	out := append([]value.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		return string(value.AppendRow(nil, out[i])) < string(value.AppendRow(nil, out[j]))
	})
	return out
}

// TestExternalSortMatchesInMemory: under a tiny budget the sort spills runs
// and the merged output is row-for-row identical to the in-memory sort —
// including the stable order of duplicate keys.
func TestExternalSortMatchesInMemory(t *testing.T) {
	const n = 500
	keys := []plan.OrderKey{{Col: 1}} // grp has many duplicates: stability visible
	sortNode := func(s *plan.Scan) *plan.Sort { return &plan.Sort{Input: s, Keys: keys} }

	base := memSource{}
	bctx := testCtx(base)
	base["t"] = wideTable(bctx, n)
	want := mustRows(t, bctx, sortNode(wideScan("t", n)))

	tables := memSource{"t": base["t"]}
	ctx, mgr, spilled := spillCtx(t, tables, 8<<10)
	got := mustRows(t, ctx, sortNode(wideScan("t", n)))

	if !sameRows(got, want) {
		t.Fatal("external sort output differs from in-memory sort")
	}
	if spilled() == 0 {
		t.Fatal("no runs spilled at an 8KB budget")
	}
	if mgr.LiveScratches() != 0 {
		t.Fatalf("%d run files leaked", mgr.LiveScratches())
	}
}

// TestExternalSortDescAndTies exercises multi-key ordering with a DESC key
// through the spill path.
func TestExternalSortDescAndTies(t *testing.T) {
	const n = 300
	keys := []plan.OrderKey{{Col: 1, Desc: true}, {Col: 0}}
	sortNode := func(s *plan.Scan) *plan.Sort { return &plan.Sort{Input: s, Keys: keys} }

	base := memSource{}
	bctx := testCtx(base)
	base["t"] = wideTable(bctx, n)
	want := mustRows(t, bctx, sortNode(wideScan("t", n)))

	tables := memSource{"t": base["t"]}
	ctx, _, spilled := spillCtx(t, tables, 8<<10)
	got := mustRows(t, ctx, sortNode(wideScan("t", n)))
	if !sameRows(got, want) {
		t.Fatal("descending external sort differs from in-memory")
	}
	if spilled() == 0 {
		t.Fatal("no runs spilled")
	}
}

// TestGraceJoinMatchesInMemory: the grace join's output is the same multiset
// as the in-memory join (its order is bucket-major, so compare canonically),
// and it is deterministic across runs.
func TestGraceJoinMatchesInMemory(t *testing.T) {
	const n = 400
	join := func(l, r *plan.Scan) *plan.Join {
		return &plan.Join{L: l, R: r,
			LKeys: []plan.Expr{col(1, types.TInt)}, RKeys: []plan.Expr{col(1, types.TInt)},
			Out: append(append(plan.Schema{}, l.Out...), r.Out...)}
	}

	base := memSource{}
	bctx := testCtx(base)
	base["l"] = wideTable(bctx, n)
	base["r"] = wideTable(bctx, n/4)
	want := sortCanonical(mustRows(t, bctx, join(wideScan("l", n), wideScan("r", n/4))))
	if len(want) == 0 {
		t.Fatal("join produced no rows; test data broken")
	}

	tables := memSource{"l": base["l"], "r": base["r"]}
	ctx, mgr, spilled := spillCtx(t, tables, 8<<10)
	got1 := mustRows(t, ctx, join(wideScan("l", n), wideScan("r", n/4)))
	if !sameRows(sortCanonical(got1), want) {
		t.Fatal("grace join result differs from in-memory join")
	}
	if spilled() == 0 {
		t.Fatal("no spills at an 8KB budget")
	}
	if mgr.LiveScratches() != 0 {
		t.Fatalf("%d run files leaked", mgr.LiveScratches())
	}

	// Determinism: a second identical run produces the identical row order.
	// Which partitions go out of core depends on how their concurrent
	// reservations interleave on the shared governor, so the order is pinned
	// on one partition, where nothing else competes for the budget.
	onePart := func() []value.Row {
		ctx, _, spilled := spillCtx(t, tables, 8<<10)
		ctx.Cluster = cluster.New(cluster.Config{Nodes: 1, PartitionsPerNode: 1, SerializeShuffles: true})
		rows := mustRows(t, ctx, join(wideScan("l", n), wideScan("r", n/4)))
		if spilled() == 0 {
			t.Fatal("no spills on one partition at an 8KB budget")
		}
		return rows
	}
	if !sameRows(onePart(), onePart()) {
		t.Fatal("grace join output order is not deterministic")
	}
}

// TestSpillAggMatchesInMemory: hybrid hash aggregation under pressure yields
// exactly the in-memory grouping (same rows, same order — the sorted-hash
// phases fix the order in both modes).
func TestSpillAggMatchesInMemory(t *testing.T) {
	const n = 600
	aggNode := func(s *plan.Scan) *plan.Agg {
		cnt := mustLookupAgg(t, "count")
		sum := mustLookupAgg(t, "sum")
		return &plan.Agg{Input: s,
			GroupBy: []plan.Expr{col(0, types.TInt)},
			Aggs: []plan.AggCall{
				{Spec: cnt, T: types.TInt},
				{Spec: sum, Input: col(1, types.TInt), T: types.TInt},
			},
			Out: plan.Schema{{Name: "id", T: types.TInt}, {Name: "n", T: types.TInt}, {Name: "s", T: types.TInt}}}
	}
	// Many distinct groups (id % 97) so the group table itself overflows.
	mk := func(ctx *Context) [][]value.Row {
		rows := make([]value.Row, n)
		pad := make([]byte, 48)
		for i := range pad {
			pad[i] = 'x'
		}
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i % 97)), value.Int(int64(i)), value.String_(string(pad))}
		}
		return ctx.Cluster.ScatterRoundRobin(rows)
	}

	base := memSource{}
	bctx := testCtx(base)
	base["t"] = mk(bctx)
	want := mustRows(t, bctx, aggNode(wideScan("t", n)))
	if len(want) != 97 {
		t.Fatalf("baseline group count = %d, want 97", len(want))
	}

	tables := memSource{"t": base["t"]}
	ctx, mgr, spilled := spillCtx(t, tables, 8<<10)
	got := mustRows(t, ctx, aggNode(wideScan("t", n)))
	if !sameRows(got, want) {
		t.Fatal("spilling aggregation differs from in-memory aggregation")
	}
	if spilled() == 0 {
		t.Fatal("no spills at an 8KB budget")
	}
	if mgr.LiveScratches() != 0 {
		t.Fatalf("%d run files leaked", mgr.LiveScratches())
	}
}

// TestFaultedSpillLeavesNoFiles: with every spill write of a non-final
// attempt failing, each operator's spilling tasks fail mid-spill and retry,
// yet the query returns the fault-free rows and no scratch file is left on
// disk when Run returns — a failed attempt's runs go with its scratch.
func TestFaultedSpillLeavesNoFiles(t *testing.T) {
	const n = 600
	cnt, sum := mustLookupAgg(t, "count"), mustLookupAgg(t, "sum")
	cases := []struct {
		name  string
		node  func() plan.Node
		order bool // the operator promises its row order
	}{
		{"hash aggregate", func() plan.Node {
			return &plan.Agg{Input: wideScan("l", n),
				GroupBy: []plan.Expr{col(0, types.TInt)},
				Aggs:    []plan.AggCall{{Spec: cnt, T: types.TInt}, {Spec: sum, Input: col(1, types.TInt), T: types.TInt}},
				Out:     plan.Schema{{Name: "id", T: types.TInt}, {Name: "n", T: types.TInt}, {Name: "s", T: types.TInt}}}
		}, true},
		{"grace join", func() plan.Node {
			l, r := wideScan("l", n), wideScan("r", n/4)
			return &plan.Join{L: l, R: r,
				LKeys: []plan.Expr{col(1, types.TInt)}, RKeys: []plan.Expr{col(1, types.TInt)},
				Out: append(append(plan.Schema{}, l.Out...), r.Out...)}
		}, false},
		{"external sort", func() plan.Node {
			return &plan.Sort{Input: wideScan("l", n), Keys: []plan.OrderKey{{Col: 1}}}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := memSource{}
			bctx := testCtx(base)
			base["l"], base["r"] = wideTable(bctx, n), wideTable(bctx, n/4)
			want := mustRows(t, bctx, c.node())

			cl := cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true,
				Faults: fault.Config{SpillProb: 1, MaxAttempts: 3, RetryBackoff: -1}})
			mgr := spill.NewManager(8<<10, spill.Hooks{WriteFault: cl.SpillWriteFault})
			t.Cleanup(func() {
				if err := mgr.Close(); err != nil {
					t.Errorf("spill manager close: %v", err)
				}
			})
			ctx := &Context{Cluster: cl, Tables: base, Timings: NewTimings(), Spill: mgr}
			got := mustRows(t, ctx, c.node())
			if !c.order {
				got, want = sortCanonical(got), sortCanonical(want)
			}
			if !sameRows(got, want) {
				t.Fatal("faulted spilling run differs from the in-memory run")
			}
			if cl.Stats().Snapshot().FaultsInjected == 0 {
				t.Fatal("no spill write faults fired")
			}
			if live := mgr.LiveScratches(); live != 0 {
				t.Fatalf("%d scratch files live after Run", live)
			}
		})
	}
}

func mustLookupAgg(t *testing.T, name string) *builtins.AggSpec {
	t.Helper()
	spec, ok := builtins.LookupAgg(name)
	if !ok {
		t.Fatalf("missing aggregate %s", name)
	}
	return spec
}

// TestLimitTruncatesPerPartition: runLimit must clip each partition before
// gathering, so the gathered set is at most N rows per partition — observable
// through TuplesProduced staying proportional to N, not to the input size.
func TestLimitTruncatesPerPartition(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	const n = 10000
	tables["t"] = wideTable(ctx, n)
	before := ctx.Cluster.Stats().Snapshot().TuplesProduced
	rel, err := Run(ctx, &plan.Limit{Input: wideScan("t", n), N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.NumRows(); got != 3 {
		t.Fatalf("limit rows = %d, want 3", got)
	}
	charged := ctx.Cluster.Stats().Snapshot().TuplesProduced - before
	// Scan charges n; the limit itself must charge only the emitted rows, not
	// the n gathered ones. Allow the per-partition pre-gather bound P*N.
	maxLimitCharge := int64(ctx.Cluster.Partitions()) * 3
	if charged > int64(n)+maxLimitCharge {
		t.Fatalf("limit charged %d tuples beyond scan; want <= %d", charged-int64(n), maxLimitCharge)
	}
}
