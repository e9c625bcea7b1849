package exec

import (
	"slices"

	"relalg/internal/cluster"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// runAgg executes a two-phase distributed aggregation: partition-local
// pre-aggregation, a shuffle of partial states keyed by group, and a final
// merge. The shuffle moves one partial state per (partition, group) instead
// of one row per input tuple — exactly the saving that makes SUM over
// matrices cheap and whose absence makes the tuple-based plans of Figure 4
// aggregation-bound.
func runAgg(ctx *Context, a *plan.Agg) (*Relation, error) {
	// Phase 1: local pre-aggregation, the sink of the input's stage (out of
	// core when a memory budget is set: new groups beyond the reservation
	// scatter to spill runs and are aggregated recursively — see aggBuilder).
	in, locals, err := runStage(ctx, a.Input, &stage{limit: -1, agg: a})
	if err != nil {
		return nil, err
	}

	// Phase 2: move partial states to their destination partition. When the
	// input already sits on one partition, or is partitioned on (a subset of)
	// the group keys, every group is complete where it is and nothing moves.
	stopShuffle := ctx.Timings.Track("aggregate-shuffle")
	var merged [][]groupRef
	moved := !in.Single && !groupingAligned(in.HashKeys, a.GroupBy)
	if moved {
		if merged, err = moveStates(ctx, locals, len(a.GroupBy) == 0); err != nil {
			return nil, err
		}
	}
	stopShuffle()

	// Phase 3: finalize, in each partition's group order: hash ascending, then
	// source partition and insertion order, which keeps output row order (and
	// so downstream shuffles and result files) identical across runs.
	stopFinal := ctx.Timings.Track("aggregate")
	out := make([][]value.Row, ctx.Cluster.Partitions())
	// Finalization is retry-safe: the finals are a pure read of the merged
	// states, so a re-executed (or speculated) attempt produces the same rows.
	err = ctx.Cluster.ParallelTasks("aggregate", taskObs(ctx), func(part, _ int) (cluster.Commit, error) {
		var refs []groupRef
		if moved {
			refs = merged[part]
		} else {
			refs = refsOf(locals, part) // distinct keys: nothing to merge
		}
		w := len(a.Out)
		flat := make([]value.Value, 0, len(refs)*w)
		rows := make([]value.Row, len(refs))
		for k, r := range refs {
			row, err := locals[r.src].appendRow(flat[k*w:k*w:(k+1)*w], r.id)
			if err != nil {
				return cluster.Commit{}, err
			}
			rows[k] = row
		}
		// A grouping with no keys over an empty input still yields one row
		// (SQL: SELECT SUM(x) FROM empty returns a single NULL row), on
		// partition 0.
		if part == 0 && len(a.GroupBy) == 0 && !slices.ContainsFunc(locals, func(t *groupTable) bool { return t.len() > 0 }) {
			empty := newGroupTable(a, !ctx.DisableAggFusion)
			empty.addStates()
			row, err := empty.appendRow(nil, 0)
			if err != nil {
				return cluster.Commit{}, err
			}
			rows = []value.Row{row}
		}
		return cluster.Commit{Produced: int64(len(rows)), Install: func() error {
			out[part] = rows
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	stopFinal()

	rel := &Relation{Schema: a.Out, Parts: out}
	if len(a.GroupBy) == 0 {
		rel.Single = true
	}
	return rel, nil
}

// moveStates is the aggregate's state exchange. Each source's groups are
// bucketed once by destination: the partition of the group hash, or 0 when
// toZero (no group keys). Each destination is one task of the cluster's
// exchange runner. Its move counts the groups that change partition and their
// wire bytes; its install merges the inbound groups (mergeRefs), which folds
// states into the first inbound group of each key, in its own table, so it must
// run exactly once: in the install, never in a move that may be retried or
// speculated.
func moveStates(ctx *Context, locals []*groupTable, toZero bool) ([][]groupRef, error) {
	p := ctx.Cluster.Partitions()
	m := uint64(p)
	if toZero {
		m = 1
	}
	ids, at := make([][]int32, len(locals)), make([][]int32, len(locals))
	for src, t := range locals {
		ids[src], at[src] = bucketSort(int(t.len()), p, func(id int) int32 { return int32(t.hash(int32(id)) % m) })
	}
	bucket := func(src, dst int) []int32 { return ids[src][at[src][dst]:at[src][dst+1]] }
	merged := make([][]groupRef, p)
	err := ctx.Cluster.Exchange("aggregate-shuffle", taskObs(ctx), func(dst, _ int) (cluster.Commit, error) {
		var tuples, wireBytes int64
		var scratch value.Row
		n := 0 // the inbound groups, this partition's own included
		for src, t := range locals {
			n += len(bucket(src, dst))
			if src == dst {
				continue
			}
			for _, id := range bucket(src, dst) {
				// A moved group's bytes: its output row, encoded.
				row, err := t.appendRow(scratch[:0], id)
				if err != nil {
					return cluster.Commit{}, err
				}
				scratch = row
				tuples++
				wireBytes += int64(row.EncodedLen())
			}
		}
		return cluster.Commit{Shuffled: tuples, WireBytes: wireBytes, Install: func() error {
			refs := make([]groupRef, 0, n)
			for src := range locals {
				for _, id := range bucket(src, dst) {
					refs = append(refs, groupRef{int32(src), id})
				}
			}
			var err error
			merged[dst], err = mergeRefs(locals, refs)
			return err
		}}, nil
	})
	return merged, err
}

// groupingAligned reports whether the input partitioning co-locates rows of
// the same group: the hash keys must be a subset of the group expressions.
func groupingAligned(hashKeys []string, groupBy []plan.Expr) bool {
	if len(hashKeys) == 0 || len(groupBy) == 0 {
		return false
	}
	gset := map[string]bool{}
	for _, g := range groupBy {
		gset[g.String()] = true
	}
	for _, h := range hashKeys {
		if !gset[h] {
			return false
		}
	}
	return true
}

// aggSpillFanout is how many spill runs new-group rows scatter into once
// the group table hits its reservation.
const aggSpillFanout = 16

// partAgg runs one partition's local pre-aggregation, hybrid-hash style:
// under memory pressure the groups already in the table keep aggregating in
// place (their rows never touch disk), while rows of groups that would need
// NEW table entries are scattered raw into spill runs by a salted re-hash of
// the group hash, then aggregated recursively. Raw input rows are spilled —
// not partial states — because aggregate states have no serialized form and
// finalized values (avg) cannot be re-merged. It holds what every recursion
// level (aggBuilder) shares: the reservation and the per-window scratch.
type partAgg struct {
	ctx     *Context
	a       *plan.Agg
	part    int
	scr     *spill.Scratch     // the owning task attempt's, for overflow runs
	res     *spill.Reservation // nil without a memory budget
	fuse    bool
	args    [][]plan.Expr  // aggregate j's arguments: none for COUNT(*), a fused SUM's (see fusedOf), else its input
	argCols [][]*value.Col // the window's columns of args
	arena   rowArena       // overflow rows of lanes that are not rows already
	ke      keyEval
	all     []int32     // the dense selection of a window
	ids     []int32     // a window's group ids, by lane
	reads   []plan.Expr // what the aggregate evaluates over its input: group keys and arguments
}

// newPartAgg sets up one partition attempt's aggregation, taking its "hash
// aggregate" reservation under a memory budget; release returns it.
func newPartAgg(ctx *Context, a *plan.Agg, part int, scr *spill.Scratch) *partAgg {
	pa := &partAgg{ctx: ctx, a: a, part: part, scr: scr, fuse: !ctx.DisableAggFusion,
		args: make([][]plan.Expr, len(a.Aggs)), argCols: make([][]*value.Col, len(a.Aggs))}
	if ctx.spillEnabled() {
		pa.res = ctx.Spill.Governor().Reservation("hash aggregate")
	}
	// Every argument evaluates columnar; a fused SUM's are fusedOf's, so the
	// call itself never runs.
	pa.reads = slices.Clip(a.GroupBy)
	for j, c := range a.Aggs {
		kind, args := fusedOf(c)
		switch {
		case c.Input == nil: // COUNT(*)
		case pa.fuse && kind != fusedNone:
			pa.args[j] = args
		default:
			pa.args[j] = []plan.Expr{c.Input}
		}
		pa.argCols[j] = make([]*value.Col, len(pa.args[j]))
		pa.reads = append(pa.reads, pa.args[j]...)
	}
	return pa
}

func (pa *partAgg) release() {
	if pa.res != nil {
		pa.res.Release()
	}
}

// seal finishes the top-level builder and seals every fused state while the
// states still belong to this attempt alone: after the install, each attempt
// of a finalize task only reads them.
func (pa *partAgg) seal(b *aggBuilder) (*groupTable, error) {
	if err := b.finish(); err != nil {
		return nil, err
	}
	t := b.t
	for _, a := range t.aggs {
		for _, chunk := range a.states {
			for _, st := range chunk {
				if fs, ok := st.(*fusedSumState); ok {
					fs.seal()
				}
			}
		}
	}
	return t, nil
}

// stateFootprint estimates the bytes of one group's aggregate states.
func stateFootprint(n int) int64 { return 64 + int64(n)*64 }

// aggregateRun aggregates one overflow run at depth into t.
func (pa *partAgg) aggregateRun(run *spill.Run, depth int, t *groupTable) error {
	b := pa.builder(depth, t)
	// The run's rows are the stage's output, so they go through a bare stage
	// into the deeper builder.
	ps := &partStage{stage: &stage{limit: -1}, win: rowWindow{reads: readSet(pa.reads)}, sink: b}
	if err := forRunWindows(run, ps.rows); err != nil {
		return err
	}
	return b.finish()
}
