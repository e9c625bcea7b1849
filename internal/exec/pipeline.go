package exec

import (
	"relalg/internal/plan"
	"relalg/internal/value"
)

// This file implements the fused scan→filter→project pipeline: when a plan
// subtree has the shape Project?(Filter*(Scan)), the executor runs it as one
// per-partition pass instead of materializing a relation per operator. Rows
// stream from the table's partition windows through the predicates into the
// projection, so filtered-out rows cost nothing downstream and projected rows
// are carved out of a chunked arena instead of one allocation each. A lone
// Filter or Project over any other input runs through the same loop. This
// extends the join-projection fusion in runProject to the leaf chains the
// optimizer pushes filters into.

// matchPipeline returns the fused chain rooted at n, or nil when fusion is
// disabled or n doesn't decompose.
func matchPipeline(ctx *Context, n plan.Node) *plan.Pipeline {
	if ctx.noPipelineFusion {
		return nil
	}
	return plan.MatchPipeline(n)
}

// arenaChunk is the most value slots a pipeline arena allocates at once:
// large enough to amortize the per-row allocation down to noise.
const arenaChunk = 4096

// rowArena hands out value.Row storage carved from chunked allocations. One
// arena serves one partition goroutine, so no locking. Rows remain valid
// forever (the chunks are never reused) — the arena only batches what would
// otherwise be one allocation per row.
type rowArena struct {
	buf []value.Value
	// left, when > 0, bounds the slots still to be handed out: a chunk stops
	// there instead of rounding a short partition up to arenaChunk, which a
	// stored CREATE TABLE AS result would pin for as long as the table lives.
	left int
}

// alloc returns a zeroed row of n values with capacity clipped to n, so an
// append by a downstream consumer can never bleed into a neighbouring row.
func (a *rowArena) alloc(n int) value.Row {
	if n == 0 {
		return value.Row{}
	}
	if len(a.buf) < n {
		size := arenaChunk
		if a.left > 0 && a.left < size {
			size = a.left
		}
		if n > size {
			size = n
		}
		a.buf = make([]value.Value, size)
	}
	if a.left > 0 {
		a.left -= n
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return value.Row(r)
}

// runPipeline executes a fused Project?(Filter*(Scan)) chain in one pass per
// partition, streaming each partition's windows straight out of the table.
// limit >= 0 is runLimit's pushed-down N: each partition stops producing, and
// stops reading, at N rows. Placement metadata follows the same rules as the
// unfused operators: a filter-only chain keeps the scan's advertised hash keys
// (rows only disappear, placement is untouched), a projecting chain drops
// them (rewriting keys through the projection is the same conservative gap as
// runProject).
func runPipeline(ctx *Context, sp *plan.Pipeline, limit int) (*Relation, error) {
	defer ctx.Timings.Track("pipeline")()
	t, keys, err := scanParts(ctx, sp.Scan)
	if err != nil {
		return nil, err
	}
	out, err := runWindows(ctx, "pipeline", sp, t, limit)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Schema: sp.Out, Parts: out}
	if sp.Exprs == nil {
		rel.HashKeys = keys
	}
	return rel, nil
}

// runWindows runs the one window loop: it applies sp's filters and
// projection (sp.Scan is not read) over every partition of t as one cluster
// stage and charges only the rows that leave it. A filter is a chain with one
// predicate and no projection, a projection one with no predicates.
func runWindows(ctx *Context, label string, sp *plan.Pipeline, t Table, limit int) ([][]value.Row, error) {
	out := make([][]value.Row, t.Parts())
	ec := ctx.EvalCtx()
	err := ctx.Cluster.ParallelTasks(label, taskObs(ctx), func(part, _ int) (func() error, error) {
		rows, err := batchPipelinePart(ec, sp, t, part, limit)
		if err != nil {
			return nil, err
		}
		return func() error {
			out[part] = rows
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range out {
		n += len(p)
	}
	if err := ctx.Cluster.ChargeTuples(int64(n)); err != nil {
		return nil, opErr(label, err)
	}
	return out, nil
}
