package exec

import (
	"slices"

	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// keyStrings renders join/group key expressions for partitioning-property
// comparison.
func keyStrings(keys []plan.Expr) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runJoin runs the hash join as st's source. Each input runs as its own stage
// into a hash exchange on its join keys (joinInput), and both run before
// either is delivered, so a key that fails to evaluate fails the join before
// anything moves. Once both are placed, each partition builds on its smaller
// side and probes, and every match is a pair of the stage; the join's residual
// is the stage's first filter.
func runJoin(ctx *Context, j *plan.Join, st *stage) (*Relation, []*groupTable, error) {
	stay := singlePart(ctx, j.L) && singlePart(ctx, j.R)
	left, lex, err := joinInput(ctx, j.L, j.LKeys, stay)
	if err != nil {
		return nil, nil, err
	}
	right, rex, err := joinInput(ctx, j.R, j.RKeys, stay)
	if err != nil {
		return nil, nil, err
	}
	defer ctx.Timings.Track("join")()
	lparts, err := place(ctx, left, lex)
	if err != nil {
		return nil, nil, err
	}
	rparts, err := place(ctx, right, rex)
	if err != nil {
		return nil, nil, err
	}
	st.filters = append(slices.Clip(j.Residual), st.filters...)
	lreads, rreads := readSet(j.LKeys), readSet(j.RKeys)
	return st.run(ctx, "hash join", true, keyStrings(j.LKeys), false, func(ps *partStage, part int) error {
		// Build on the smaller side of this partition.
		lrows, rrows := lparts[part], rparts[part]
		buildLeft := len(lrows) <= len(rrows)

		buildRows, probeRows := lrows, rrows
		buildKeys, probeKeys := j.LKeys, j.RKeys
		buildReads, probeReads := lreads, rreads
		if !buildLeft {
			buildRows, probeRows = rrows, lrows
			buildKeys, probeKeys = j.RKeys, j.LKeys
			buildReads, probeReads = rreads, lreads
		}
		pj := &partJoin{
			ctx:        ctx,
			ec:         ps.ec,
			buildKeys:  buildKeys,
			probeKeys:  probeKeys,
			buildReads: buildReads,
			probeReads: probeReads,
			buildLeft:  buildLeft,
			part:       part,
			scr:        ps.scr,
			st:         ps,
		}
		return pj.run(buildRows, probeRows)
	})
}

// joinInput runs one join input n as a stage whose sink is a hash exchange on
// keys, under the stage's own timing label. It returns the stage's relation
// and the exchange whose buckets still have to move, or a nil exchange when
// the rows stay: when stay is set (both inputs are single-partition), or when
// the stage's output is already hash-placed on keys. A single-partition input
// is placed on no keys, so facing a partitioned one it always moves.
func joinInput(ctx *Context, n plan.Node, keys []plan.Expr, stay bool) (*Relation, *exchange, error) {
	st := &stage{limit: -1}
	if !stay {
		st.ex = &exchange{keys: keys}
	}
	rel, _, err := runStage(ctx, n, st)
	return rel, st.ex, err
}

// place returns a join input's partitions placed on its keys: the relation's
// own, or its exchange's buckets delivered.
func place(ctx *Context, rel *Relation, ex *exchange) ([][]value.Row, error) {
	if ex == nil {
		return rel.Parts, nil
	}
	return ctx.Cluster.Deliver("shuffle", taskObs(ctx), ex.buckets)
}

// singlePart reports whether n's output will live on one partition, read from
// the plan before n runs: an aggregate without GROUP BY, a sort, a LIMIT or a
// one-row source, seen through projections and filters, or a materialized
// relation gathered onto one partition.
func singlePart(ctx *Context, n plan.Node) bool {
	if rel, ok := ctx.bound[n]; ok {
		return rel.Single
	}
	switch x := n.(type) {
	case *plan.Project:
		return singlePart(ctx, x.Input)
	case *plan.Filter:
		return singlePart(ctx, x.Input)
	case *plan.Bound:
		return singlePart(ctx, x.Input)
	case *plan.Agg:
		return len(x.GroupBy) == 0
	case *plan.Sort, *plan.Limit, *plan.OneRow:
		return true
	}
	return false
}

// partJoin joins one partition's build and probe slices, going out-of-core
// (grace hash join) when the memory governor denies the build table its
// working set.
type partJoin struct {
	ctx                    *Context
	ec                     *plan.EvalCtx
	buildKeys, probeKeys   []plan.Expr
	buildReads, probeReads []int // the columns of buildKeys and probeKeys
	buildLeft              bool
	part                   int
	scr                    *spill.Scratch // the owning task attempt's, for grace runs
	st                     *partStage     // where matched pairs go
}

// maxGraceDepth bounds the recursive re-partitioning of a grace join; at the
// limit the build table is forced into memory (skew on a single key cannot be
// subdivided by re-hashing it).
const maxGraceDepth = 3

// graceFanout picks the sub-partition count so each sub-build plausibly fits
// the partition's budget share: enough files to subdivide the estimated build
// bytes, clamped to keep file counts sane.
func (pj *partJoin) graceFanout(buildRows []value.Row) int {
	var est int64
	for _, r := range buildRows {
		est += rowFootprint(r)
	}
	share := pj.ctx.Spill.Governor().Budget() / int64(pj.ctx.Cluster.Partitions())
	if share < minGraceShare {
		share = minGraceShare
	}
	f := int(est/share) + 1
	if f < 4 {
		f = 4
	}
	if f > 64 {
		f = 64
	}
	return f
}

// minGraceShare floors the per-partition budget share used for fanout
// estimation, so a tiny budget doesn't explode the file count.
const minGraceShare = 16 << 10

// readRun materializes a run's rows back into memory.
func readRun(run *spill.Run) ([]value.Row, error) {
	rd := run.Reader()
	rows := make([]value.Row, 0, run.Rows)
	for {
		row, more, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !more {
			return rows, nil
		}
		rows = append(rows, row)
	}
}

// mix64 is the splitmix64 finalizer: it decorrelates the sub-partition index
// from the partition shuffle's own use of the key hash, so grace files don't
// all collapse into one bucket.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// graceSalt varies the scatter per recursion depth so a sub-partition that
// recurses actually re-distributes.
func graceSalt(depth int) uint64 {
	return mix64(0x9e3779b97f4a7c15 * uint64(depth+1))
}

// charger counts the intermediate tuples one task attempt produces and peeks
// at the budget as it goes, so the budget guard fires while a runaway join is
// still producing, not after it has materialized everything (the mechanism
// behind the paper's "Fail" entries). The count is the attempt's
// Commit.Produced: the task runner charges it once, for the winning attempt,
// so a failed attempt charges nothing.
type charger struct {
	ctx        *Context
	op         string
	total      int64 // tuples this attempt has produced
	sinceCheck int64
}

func newCharger(ctx *Context, op string) *charger { return &charger{ctx: ctx, op: op} }

// tick counts n produced tuples and periodically peeks at the budget so a
// runaway operator aborts mid-production. A nil charger counts nothing.
func (c *charger) tick(n int) error {
	if c == nil {
		return nil
	}
	c.total += int64(n)
	c.sinceCheck += int64(n)
	if c.sinceCheck >= 4096 {
		c.sinceCheck = 0
		return opErr(c.op, c.ctx.Cluster.CheckBudget(c.total))
	}
	return nil
}

// runCross runs the cross join as st's source: each partition pairs its rows
// of the bigger side (outer loop) with every broadcast row of the smaller one
// (inner loop), so the residual and projection run columnar over pair windows
// like the hash join's.
func runCross(ctx *Context, c *plan.Cross, st *stage) (*Relation, []*groupTable, error) {
	left, err := Run(ctx, c.L)
	if err != nil {
		return nil, nil, err
	}
	right, err := Run(ctx, c.R)
	if err != nil {
		return nil, nil, err
	}
	defer ctx.Timings.Track("join")()

	// Broadcast the smaller side (by rows); the bigger side stays in place.
	broadcastRight := right.NumRows() <= left.NumRows()
	var big, small *Relation
	if broadcastRight {
		big, small = left, right
	} else {
		big, small = right, left
	}
	smallParts, err := ctx.Cluster.Broadcast(taskObs(ctx), small.Parts)
	if err != nil {
		return nil, nil, err
	}
	st.filters = append(slices.Clip(c.Residual), st.filters...)
	return st.run(ctx, "cross join", true, nil, false, func(ps *partStage, part int) error {
		for _, br := range big.Parts[part] {
			for _, sr := range smallParts[part] {
				l, r := br, sr
				if !broadcastRight {
					l, r = sr, br
				}
				if err := ps.pair(l, r); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
