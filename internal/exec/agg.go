package exec

import (
	"slices"
	"sort"

	"relalg/internal/builtins"
	"relalg/internal/cluster"
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
	// scatter to spill runs and are aggregated recursively — see aggBuilder).
	in, locals, err := runStage(ctx, a.Input, &stage{limit: -1, agg: a})
	if err != nil {
		return nil, err
	}

	// Phase 2: move partial states to their destination partition. When the
	// input already sits on one partition, or is partitioned on (a subset of)
	// the group keys, every group is complete where it is and nothing moves.
	stopShuffle := ctx.Timings.Track("aggregate-shuffle")
	merged := locals
	if !in.Single && !groupingAligned(in.HashKeys, a.GroupBy) {
		if merged, err = moveStates(ctx, locals, len(a.GroupBy) == 0); err != nil {
			return nil, err
		}
	}
	stopShuffle()

	// Phase 3: finalize. Sorted hash order keeps output row order (and so
	// downstream shuffles and result files) identical across runs.
	stopFinal := ctx.Timings.Track("aggregate")
	out := make([][]value.Row, ctx.Cluster.Partitions())
	// Finalization is retry-safe: Final is a pure read of the merged states,
	// so a re-executed (or speculated) attempt produces the same rows.
	err = ctx.Cluster.ParallelTasks("aggregate", taskObs(ctx), func(part, _ int) (cluster.Commit, error) {
		var rows []value.Row
		for _, h := range sortedHashes(merged[part]) {
			for _, g := range merged[part][h] {
				row := make(value.Row, 0, len(a.Out))
				row = append(row, g.keys...)
				for _, st := range g.states {
					v, err := st.Final()
					if err != nil {
						return cluster.Commit{}, err
					}
					row = append(row, v)
				}
				rows = append(rows, row)
			}
		}
		// A grouping with no keys over an empty input still yields one row
		// (SQL: SELECT SUM(x) FROM empty returns a single NULL row), on
		// partition 0.
		if part == 0 && len(a.GroupBy) == 0 && noGroups(merged) {
			row := make(value.Row, 0, len(a.Aggs))
			for _, st := range newStates(a.Aggs, !ctx.DisableAggFusion) {
				v, err := st.Final()
				if err != nil {
					return cluster.Commit{}, err
				}
				row = append(row, v)
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

// noGroups reports whether every partition's group map is empty.
func noGroups(maps []map[uint64][]*aggGroup) bool {
	for _, m := range maps {
		if len(m) > 0 {
			return false
		}
	}
	return true
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

// moveStates is the aggregate's state exchange. Each source's sealed groups
// are bucketed by destination once, in hash order: the partition of the group
// hash, or partition 0 when toZero (no group keys). Each destination is then
// one task of the cluster's exchange runner. Its move counts the groups that
// change partition and their wire bytes; its install merges the inbound groups
// with mergeGroupMaps, source ascending and hash ascending, the order that
// keeps every merged state bit-identical. The merge adopts the first inbound
// group of each key and merges the rest into it, so it must run exactly once:
// in the install, never in a move that may be retried or speculated.
func moveStates(ctx *Context, locals []map[uint64][]*aggGroup, toZero bool) ([]map[uint64][]*aggGroup, error) {
	p := ctx.Cluster.Partitions()
	buckets := make([][][]uint64, len(locals)) // [src][dst] group hashes, ascending
	for src, groups := range locals {
		buckets[src] = make([][]uint64, p)
		hs := sortedHashes(groups)
		if toZero {
			buckets[src][0] = hs
			continue
		}
		for _, h := range hs {
			d := int(h % uint64(p))
			buckets[src][d] = append(buckets[src][d], h)
		}
	}
	merged := make([]map[uint64][]*aggGroup, p)
	err := ctx.Cluster.Exchange("aggregate-shuffle", taskObs(ctx), func(dst, _ int) (cluster.Commit, error) {
		var tuples, wireBytes int64
		var scratch value.Row
		most := 0 // the largest inbound bucket: the merged map's size hint
		for src := range buckets {
			most = max(most, len(buckets[src][dst]))
			if src == dst {
				continue
			}
			for _, h := range buckets[src][dst] {
				for _, g := range locals[src][h] {
					tuples++
					wireBytes += g.wireLen(&scratch)
				}
			}
		}
		return cluster.Commit{Shuffled: tuples, WireBytes: wireBytes, Install: func() error {
			m := make(map[uint64][]*aggGroup, most)
			for src := range buckets {
				if err := mergeGroupMaps(m, locals[src], buckets[src][dst]); err != nil {
					return err
				}
			}
			merged[dst] = m
			return nil
		}}, nil
	})
	return merged, err
}

// wireLen returns the bytes one group costs to move: its key values and each
// state's partial value, encoded as one row, which it builds in scratch.
func (g *aggGroup) wireLen(scratch *value.Row) int64 {
	row := append((*scratch)[:0], g.keys...)
	for _, st := range g.states {
		if v, err := st.Final(); err == nil {
			row = append(row, v)
		}
	}
	*scratch = row
	return int64(row.EncodedLen())
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
	ec      *plan.EvalCtx
	a       *plan.Agg
	part    int
	scr     *spill.Scratch     // the owning task attempt's, for overflow runs
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
func newPartAgg(ctx *Context, a *plan.Agg, part int, scr *spill.Scratch) *partAgg {
	pa := &partAgg{ctx: ctx, ec: ctx.EvalCtx(), a: a, part: part, scr: scr, fuse: !ctx.DisableAggFusion,
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

// aggregateRun aggregates one overflow run at depth.
func (pa *partAgg) aggregateRun(run *spill.Run, depth int) (map[uint64][]*aggGroup, error) {
	b := pa.builder(depth)
	// The run's rows are the stage's output, so they go through a bare stage
	// into the deeper builder.
	ps := &partStage{stage: &stage{limit: -1}, ec: pa.ec, pre: newPrefetcher(pa.reads), sink: b}
	if err := forRunWindows(run, ps.rows); err != nil {
		return nil, err
	}
	return b.finish()
}

// mergeGroupMaps folds the groups of src under the hashes hs, in that order,
// into dst: a group whose key dst lacks is adopted, and any other is merged
// into dst's group. Callers pass hs ascending, so floating-point accumulation
// stays deterministic.
func mergeGroupMaps(dst, src map[uint64][]*aggGroup, hs []uint64) error {
	for _, h := range hs {
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
