package exec

import (
	"slices"
	"sync"

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

// evalKeys evaluates key expressions against a row.
func evalKeys(ec *plan.EvalCtx, keys []plan.Expr, row value.Row) ([]value.Value, error) {
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		v, err := k.Eval(ec, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func hashVals(vals []value.Value) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= v.Hash()
		h *= prime64
	}
	return h
}

// valsEqual compares key tuples with SQL semantics (numeric kinds compare by
// value; NULL equals NULL for grouping purposes).
func valsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNumeric() && b[i].IsNumeric() {
			x, _ := a[i].AsDouble()
			y, _ := b[i].AsDouble()
			if x != y {
				return false
			}
			continue
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// runJoin runs the hash join as st's source. Once both inputs are placed on
// their join keys, each partition builds on its smaller side and probes, and
// every match is a pair of the stage; the join's residual is the stage's first
// filter.
func runJoin(ctx *Context, j *plan.Join, st *stage) (*Relation, []map[uint64][]*aggGroup, error) {
	left, err := Run(ctx, j.L)
	if err != nil {
		return nil, nil, err
	}
	right, err := Run(ctx, j.R)
	if err != nil {
		return nil, nil, err
	}
	defer ctx.Timings.Track("join")()

	lkeyStr := keyStrings(j.LKeys)
	rkeyStr := keyStrings(j.RKeys)

	// Shuffle each side unless it is already hash-partitioned on its join
	// keys (or everything is on a single partition already).
	lparts := left.Parts
	if !left.Single && !sameKeys(left.HashKeys, lkeyStr) {
		lparts, err = shuffleByKeys(ctx, left.Parts, j.LKeys)
		if err != nil {
			return nil, nil, err
		}
	}
	rparts := right.Parts
	bothSingle := left.Single && right.Single
	if !bothSingle {
		if left.Single {
			// The left side lives on one partition; bring the right side
			// there rather than shuffling (cheaper for tiny left sides is
			// the reverse, but correctness first: co-locate on partitions).
			lparts, err = shuffleByKeys(ctx, left.Parts, j.LKeys)
			if err != nil {
				return nil, nil, err
			}
		}
		if !sameKeys(right.HashKeys, rkeyStr) || right.Single {
			rparts, err = shuffleByKeys(ctx, right.Parts, j.RKeys)
			if err != nil {
				return nil, nil, err
			}
		}
	}

	st.filters = append(slices.Clip(j.Residual), st.filters...)
	return st.run(ctx, "hash join", true, lkeyStr, false, func(ps *partStage, part, attempt int) error {
		// Build on the smaller side of this partition.
		lrows, rrows := lparts[part], rparts[part]
		buildLeft := len(lrows) <= len(rrows)

		buildRows, probeRows := lrows, rrows
		buildKeys, probeKeys := j.LKeys, j.RKeys
		if !buildLeft {
			buildRows, probeRows = rrows, lrows
			buildKeys, probeKeys = j.RKeys, j.LKeys
		}
		pj := &partJoin{
			ctx:       ctx,
			ec:        ps.ec,
			buildKeys: buildKeys,
			probeKeys: probeKeys,
			buildLeft: buildLeft,
			part:      part,
			attempt:   attempt,
			st:        ps,
		}
		return pj.run(buildRows, probeRows)
	})
}

// joinBucket is one build-side entry of the hash table: the evaluated key
// tuple plus the source row.
type joinBucket struct {
	keys []value.Value
	row  value.Row
}

// partJoin joins one partition's build and probe slices, going out-of-core
// (grace hash join) when the memory governor denies the build table its
// working set.
type partJoin struct {
	ctx       *Context
	ec        *plan.EvalCtx
	buildKeys []plan.Expr
	probeKeys []plan.Expr
	buildLeft bool
	part      int
	attempt   int        // owning task attempt; keys spill write-fault draws
	st        *partStage // where matched pairs go
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
	rd, err := run.Reader()
	if err != nil {
		return nil, err
	}
	rows := make([]value.Row, 0, run.Rows)
	for {
		row, more, err := rd.Next()
		if err != nil {
			_ = rd.Close()
			return nil, err
		}
		if !more {
			break
		}
		rows = append(rows, row)
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// removeRunSlice best-effort-removes runs on error paths (nil entries are
// already handled); Manager.Close sweeps anything left behind.
func removeRunSlice(runs []*spill.Run) {
	for _, r := range runs {
		if r != nil {
			_ = r.Remove()
		}
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

// charger batches intermediate-tuple accounting so the budget guard fires
// while a runaway join is still producing, not after it has materialized
// everything (the mechanism behind the paper's "Fail" entries). It splits
// the accounting along the task runner's compute/commit line: tick (compute)
// only peeks at the budget, so an attempt that is retried or loses a
// speculation race charges nothing; commit performs the one definitive
// charge for the winning attempt.
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

// commit charges everything this attempt produced; the task runner invokes
// it exactly once, from the winning attempt.
func (c *charger) commit() error {
	if c == nil || c.total == 0 {
		return nil
	}
	return opErr(c.op, c.ctx.Cluster.ChargeTuples(c.total))
}

func shuffleByKeys(ctx *Context, parts [][]value.Row, keys []plan.Expr) ([][]value.Row, error) {
	p := ctx.Cluster.Partitions()
	// The destination function runs concurrently across source partitions;
	// record the first evaluation error under a lock.
	var (
		mu      sync.Mutex
		evalErr error
	)
	ec := ctx.EvalCtx()
	out, err := ctx.Cluster.ShuffleByObs(taskObs(ctx), parts, func(r value.Row) int {
		kv, err := evalKeys(ec, keys, r)
		if err != nil {
			mu.Lock()
			if evalErr == nil {
				evalErr = err
			}
			mu.Unlock()
			return 0
		}
		return int(hashVals(kv) % uint64(p))
	})
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// runCross runs the cross join as st's source: each partition pairs its rows
// of the bigger side (outer loop) with every broadcast row of the smaller one
// (inner loop), so the residual and projection run columnar over pair windows
// like the hash join's.
func runCross(ctx *Context, c *plan.Cross, st *stage) (*Relation, []map[uint64][]*aggGroup, error) {
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
	smallParts, err := ctx.Cluster.BroadcastObs(taskObs(ctx), small.Parts)
	if err != nil {
		return nil, nil, err
	}
	st.filters = append(slices.Clip(c.Residual), st.filters...)
	return st.run(ctx, "cross join", true, nil, false, func(ps *partStage, part, _ int) error {
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
