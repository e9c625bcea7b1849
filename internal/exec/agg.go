package exec

import (
	"slices"
	"sort"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// aggGroup is the running state for one group on one partition.
type aggGroup struct {
	keys   []value.Value
	states []builtins.AggState
}

// runAgg executes a two-phase distributed aggregation: partition-local
// pre-aggregation, a shuffle of partial states keyed by group, and a final
// merge. The shuffle moves one partial state per (partition, group) instead
// of one row per input tuple — exactly the saving that makes SUM over
// matrices cheap and whose absence makes the tuple-based plans of Figure 4
// aggregation-bound.
func runAgg(ctx *Context, a *plan.Agg) (*Relation, error) {
	// Phase 1: local pre-aggregation, the sink of the input's stage (out of
	// core when a memory budget is set: new groups beyond the reservation
	// scatter to spill files and are aggregated recursively — see aggBuilder).
	in, locals, err := runStage(ctx, a.Input, &stage{limit: -1, agg: a})
	if err != nil {
		return nil, err
	}

	// Phase 2: move partial states to their destination partition. When the
	// input is already partitioned on (a subset of) the group keys — or
	// there are no group keys and everything should meet on partition 0 —
	// the move is local.
	stopShuffle := ctx.Timings.Track("aggregate-shuffle")
	p := ctx.Cluster.Partitions()
	dest := func(h uint64) int { return int(h % uint64(p)) }
	skipShuffle := in.Single || groupingAligned(in.HashKeys, a.GroupBy)
	if len(a.GroupBy) == 0 {
		dest = func(uint64) int { return 0 }
		skipShuffle = false
		if in.Single {
			skipShuffle = true
		}
	}

	merged := make([]map[uint64][]*aggGroup, p)
	for i := range merged {
		merged[i] = map[uint64][]*aggGroup{}
	}
	if skipShuffle {
		for part, groups := range locals {
			if groups != nil {
				merged[part] = groups
			}
		}
	} else {
		// Charge the movement: every group whose destination differs from
		// its source crosses the network as (key row + partial values).
		// Hashes iterate in sorted order so partial states merge in the
		// same sequence every run — floating-point accumulation order, and
		// therefore the produced values, stay seed-deterministic.
		for src, groups := range locals {
			for _, h := range sortedHashes(groups) {
				gs := groups[h]
				d := dest(h)
				for _, g := range gs {
					if d != src {
						chargeStateMove(ctx, g)
					}
					// Merge into the destination.
					var tgt *aggGroup
					for _, cand := range merged[d][h] {
						if valsEqual(cand.keys, g.keys) {
							tgt = cand
							break
						}
					}
					if tgt == nil {
						merged[d][h] = append(merged[d][h], g)
						continue
					}
					for i := range tgt.states {
						if err := tgt.states[i].Merge(g.states[i]); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	stopShuffle()

	// Phase 3: finalize. Sorted hash order keeps output row order (and so
	// downstream shuffles and result files) identical across runs.
	stopFinal := ctx.Timings.Track("aggregate")
	out := make([][]value.Row, p)
	// Finalization is retry-safe: Final is a pure read of the merged states,
	// so a re-executed (or speculated) attempt produces the same rows.
	err = ctx.Cluster.ParallelTasks("aggregate", taskObs(ctx), func(part, _ int) (func() error, error) {
		var rows []value.Row
		for _, h := range sortedHashes(merged[part]) {
			for _, g := range merged[part][h] {
				row := make(value.Row, 0, len(a.Out))
				row = append(row, g.keys...)
				for _, st := range g.states {
					v, err := st.Final()
					if err != nil {
						return nil, err
					}
					row = append(row, v)
				}
				rows = append(rows, row)
			}
		}
		return func() error {
			out[part] = rows
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// A grouping with no keys over an empty input still yields one row
	// (SQL: SELECT SUM(x) FROM empty returns a single NULL row).
	if len(a.GroupBy) == 0 && relEmpty(out) {
		row := make(value.Row, 0, len(a.Aggs))
		for _, st := range newStates(a.Aggs, !ctx.DisableAggFusion) {
			v, err := st.Final()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out[0] = []value.Row{row}
	}

	var produced int64
	for _, pr := range out {
		produced += int64(len(pr))
	}
	if err := ctx.Cluster.ChargeTuples(produced); err != nil {
		return nil, opErr("aggregate", err)
	}
	stopFinal()

	rel := &Relation{Schema: a.Out, Parts: out}
	if len(a.GroupBy) == 0 {
		rel.Single = true
	}
	return rel, nil
}

// sortedHashes returns the keys of a group-hash map in ascending order, the
// iteration order every phase uses so merge and output sequences are
// deterministic.
func sortedHashes(groups map[uint64][]*aggGroup) []uint64 {
	hs := make([]uint64, 0, len(groups))
	for h := range groups {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

func relEmpty(parts [][]value.Row) bool {
	for _, p := range parts {
		if len(p) > 0 {
			return false
		}
	}
	return true
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

func newStates(aggs []plan.AggCall, fuse bool) []builtins.AggState {
	out := make([]builtins.AggState, len(aggs))
	for i, a := range aggs {
		if fuse {
			if kind := fusedOf(a); kind != fusedNone {
				out[i] = &fusedSumState{kind: kind, args: a.Input.(*plan.Call).Args}
				continue
			}
		}
		out[i] = a.Spec.New()
	}
	return out
}

// aggSpillFanout is how many spill files new-group rows scatter into once
// the group table hits its reservation.
const aggSpillFanout = 16

// partAgg runs one partition's local pre-aggregation, hybrid-hash style:
// under memory pressure the groups already in the table keep aggregating in
// place (their rows never touch disk), while rows of groups that would need
// NEW table entries are scattered raw into spill files by a salted re-hash of
// the group hash, then aggregated recursively. Raw input rows are spilled —
// not partial states — because aggregate states have no serialized form and
// finalized values (avg) cannot be re-merged. It holds what every recursion
// level (aggBuilder) shares: the reservation and the per-window scratch.
type partAgg struct {
	ctx     *Context
	ec      *plan.EvalCtx
	a       *plan.Agg
	part    int
	attempt int                // owning task attempt; keys spill write-fault draws
	res     *spill.Reservation // nil without a memory budget
	fuse    bool
	vecArg  []bool // aggregate j's argument evaluates columnar (plain calls)
	rowArg  bool   // some aggregate is fused and steps from the whole row
	argCols []*value.Col
	ke      keyEval
	reads   []plan.Expr // what the aggregate evaluates over its input: group keys and plain arguments
}

// newPartAgg sets up one partition attempt's aggregation, taking its "hash
// aggregate" reservation under a memory budget; release returns it.
func newPartAgg(ctx *Context, a *plan.Agg, part, attempt int) *partAgg {
	pa := &partAgg{ctx: ctx, ec: ctx.EvalCtx(), a: a, part: part, attempt: attempt, fuse: !ctx.DisableAggFusion,
		vecArg: make([]bool, len(a.Aggs)), argCols: make([]*value.Col, len(a.Aggs))}
	if ctx.spillEnabled() {
		pa.res = ctx.Spill.Governor().Reservation("hash aggregate")
	}
	// Aggregate argument columns vectorize only for plain (non-fused,
	// non-COUNT(*)) calls; fused states step from the row.
	pa.reads = slices.Clip(a.GroupBy)
	for j, c := range a.Aggs {
		pa.vecArg[j] = c.Input != nil && !(pa.fuse && fusedOf(c) != fusedNone)
		if pa.vecArg[j] {
			pa.reads = append(pa.reads, c.Input)
		} else if c.Input != nil {
			pa.rowArg = true
		}
	}
	return pa
}

func (pa *partAgg) release() {
	if pa.res != nil {
		pa.res.Release()
	}
}

// seal finishes the top-level builder and seals every fused state while the
// states still belong to this attempt alone: the finalize tasks may read one
// state from two attempts at once.
func (pa *partAgg) seal(b *aggBuilder) (map[uint64][]*aggGroup, error) {
	groups, err := b.finish()
	if err != nil {
		return nil, err
	}
	for _, gs := range groups {
		for _, g := range gs {
			for _, st := range g.states {
				if fs, ok := st.(*fusedSumState); ok {
					fs.seal()
				}
			}
		}
	}
	return groups, nil
}

// stateFootprint estimates the bytes of one group's aggregate states.
func stateFootprint(n int) int64 { return 64 + int64(n)*64 }

// aggregateRun aggregates one overflow file at depth and removes it.
func (pa *partAgg) aggregateRun(run *spill.Run, depth int) (map[uint64][]*aggGroup, error) {
	b := pa.builder(depth)
	// The file's rows are the stage's output, so they go through a bare stage
	// into the deeper builder.
	ps := &partStage{stage: &stage{limit: -1}, ec: pa.ec, pre: newPrefetcher(pa.reads), sink: b}
	if err := forRunWindows(run, ps.rows); err != nil {
		b.abort()
		return nil, err
	}
	groups, err := b.finish()
	if err != nil {
		return nil, err
	}
	if err := run.Remove(); err != nil {
		return nil, err
	}
	return groups, nil
}

// mergeGroupMaps folds the child map into dst. Spilled groups are disjoint
// from the parent table by construction (in-table groups keep stepping in
// place), but merge defensively anyway, in sorted hash order so any
// floating-point accumulation stays deterministic.
func mergeGroupMaps(dst, src map[uint64][]*aggGroup) error {
	for _, h := range sortedHashes(src) {
		for _, g := range src[h] {
			var tgt *aggGroup
			for _, cand := range dst[h] {
				if valsEqual(cand.keys, g.keys) {
					tgt = cand
					break
				}
			}
			if tgt == nil {
				dst[h] = append(dst[h], g)
				continue
			}
			for i := range tgt.states {
				if err := tgt.states[i].Merge(g.states[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// chargeStateMove accounts for a partial aggregate state crossing the
// network: the group key plus the current partial values, serialized.
func chargeStateMove(ctx *Context, g *aggGroup) {
	row := make(value.Row, 0, len(g.keys)+len(g.states))
	row = append(row, g.keys...)
	for _, st := range g.states {
		if v, err := st.Final(); err == nil {
			row = append(row, v)
		}
	}
	n := int64(row.EncodedLen())
	ctx.Cluster.Stats().TuplesShuffled.Add(1)
	ctx.Cluster.Stats().BytesShuffled.Add(n)
	ctx.Cluster.NetworkWait(n)
}
