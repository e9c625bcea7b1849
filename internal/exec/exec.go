// Package exec is the physical executor: it runs optimized logical plans on
// the simulated shared-nothing cluster, stage at a time like the Hadoop-based
// SimSQL the paper built on. A stage is one Project?(Filter*(X)) chain run per
// partition over X's windows into a partitioned relation or straight into the
// local aggregate above it (stage.go). Joins and aggregations shuffle through
// the cluster — paying serialization and network accounting — and
// aggregation is two-phase: partition-local pre-aggregation, a shuffle of
// partial states, then a merge, which is what makes SUM over vectors and
// matrix blocks scale.
package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"relalg/internal/cluster"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// Relation is a materialized, partitioned intermediate result.
type Relation struct {
	Schema plan.Schema
	Parts  [][]value.Row
	// HashKeys, when non-nil, records the String() forms of the expressions
	// this relation is hash-partitioned by, letting downstream joins and
	// aggregations skip redundant shuffles (the paper's "R was already
	// partitioned on the join key" optimization).
	HashKeys []string
	// Single marks a relation gathered onto one partition.
	Single bool
}

// Rows gathers all partitions (convenience for result consumption).
func (r *Relation) Rows() []value.Row {
	var n int
	for _, p := range r.Parts {
		n += len(p)
	}
	out := make([]value.Row, 0, n)
	for _, p := range r.Parts {
		out = append(out, p...)
	}
	return out
}

// NumRows counts rows across partitions.
func (r *Relation) NumRows() int {
	n := 0
	for _, p := range r.Parts {
		n += len(p)
	}
	return n
}

// Table is one table as the executor reads it: a partition count and, per
// partition, a stream of row windows in stored order. fn may keep the rows it
// is handed; a table never reuses a window.
type Table interface {
	Parts() int
	ScanPart(part int, fn func(rows []value.Row) error) error
}

// TableSource resolves table names to tables.
type TableSource interface {
	OpenTable(name string) (Table, error)
}

// MemTable is a Table over in-memory partitions: each partition is a single
// window, handed out with its capacity clipped so that an append by the
// consumer never writes into the table.
type MemTable [][]value.Row

// Parts implements Table.
func (m MemTable) Parts() int { return len(m) }

// ScanPart implements Table.
func (m MemTable) ScanPart(part int, fn func(rows []value.Row) error) error {
	p := m[part]
	return fn(p[:len(p):len(p)])
}

// Timings accumulates wall-clock time per operator label; Figure 4's
// breakdown of join vs aggregation cost reads from here.
type Timings struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

// NewTimings returns an empty timing table.
func NewTimings() *Timings { return &Timings{m: map[string]time.Duration{}} }

// Track starts a stopwatch for label and returns the function that stops it
// and charges the elapsed time. It is the only place the executor reads the
// wall clock: operator timings are measurement output (Figure 4's
// breakdown), never simulation state, so determinism of results is
// unaffected.
func (t *Timings) Track(label string) func() {
	start := time.Now()
	return func() { t.Add(label, time.Since(start)) }
}

// Add charges d to label.
func (t *Timings) Add(label string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.m[label] += d
	t.mu.Unlock()
}

// Get returns the accumulated time for label.
func (t *Timings) Get(label string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[label]
}

// Labels returns all labels sorted.
func (t *Timings) Labels() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.m))
	for l := range t.m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Total sums all labels.
func (t *Timings) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, v := range t.m {
		d += v
	}
	return d
}

// Context carries everything an execution needs.
type Context struct {
	Cluster *cluster.Cluster
	Tables  TableSource
	Timings *Timings
	// DisableAggFusion turns off the fused SUM(outer_product)/
	// SUM(matrix_multiply) accumulation, reverting to one materialized
	// result object per input row — the behaviour of the paper's 2017
	// SimSQL, which the benchmark harness emulates (ablation A4).
	DisableAggFusion bool
	// Spill carries the per-query memory governor and scratch-file layer. When
	// nil or budget-less, every operator runs strictly in memory (the seed
	// behaviour); when enabled, the hash join, hash aggregation, and sort go
	// out-of-core under pressure instead of growing without bound.
	Spill *spill.Manager
	// KernelWorkers is this query's goroutine budget for parallel linalg
	// kernels. 0 means GOMAXPROCS; the serving layer sets an explicit lease
	// so concurrent queries share the machine instead of each assuming
	// exclusive use.
	KernelWorkers int
	// Adaptive, when non-nil with Factor > 1, enables mid-query
	// re-optimization of join regions whose observed input cardinalities
	// diverge from their estimates; see Adaptive.
	Adaptive *Adaptive

	// bound caches relations materialized during adaptive re-optimization,
	// keyed by the plan node that produced them; plan.Bound leaves resolve
	// here. adaptiveHandled marks join regions already checked, so a query
	// re-plans each region at most once.
	bound           map[plan.Node]*Relation
	adaptiveHandled map[plan.Node]bool
}

// EvalCtx returns the expression-evaluation context for this query. The
// context is immutable, so one value may be shared by every goroutine of the
// query; callers capture it once per operator rather than per row.
func (c *Context) EvalCtx() *plan.EvalCtx {
	return &plan.EvalCtx{KernelWorkers: c.KernelWorkers}
}

// spillEnabled reports whether a memory budget governs this query.
func (c *Context) spillEnabled() bool { return c.Spill.Enabled() }

// opErr tags err with the operator that tripped it, so budget exhaustion and
// spill-layer failures are diagnosable; %w keeps errors.Is matching (the
// failure tests pin both properties).
func opErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", op, err)
}

// taskObs wires the cluster task runner's retry events into the query's
// timing table: the deterministic backoff waits that precede re-executions
// accumulate under the "retry" label.
func taskObs(ctx *Context) cluster.TaskObserver {
	t := ctx.Timings
	return cluster.TaskObserver{RetryWait: func(d time.Duration) { t.Add("retry", d) }}
}

// rowFootprint is the governed in-memory cost of holding one row in an
// operator's working set: the codec's encoded payload plus slice and header
// overhead.
func rowFootprint(r value.Row) int64 { return int64(r.SizeBytes()) + 48 }

// Run executes a plan and returns the materialized result.
func Run(ctx *Context, n plan.Node) (*Relation, error) {
	// A subtree materialized during adaptive re-optimization never re-runs.
	if rel, ok := ctx.bound[n]; ok {
		return rel, nil
	}
	switch x := n.(type) {
	case *plan.Scan, *plan.Project, *plan.Filter, *plan.Join, *plan.Cross:
		rel, _, err := runStage(ctx, n, &stage{limit: -1})
		return rel, err
	case *plan.Bound:
		if rel, ok := ctx.bound[x.Input]; ok {
			return rel, nil
		}
		return Run(ctx, x.Input)
	case *plan.Agg:
		return runAgg(ctx, x)
	case *plan.Sort:
		return runSort(ctx, x)
	case *plan.Limit:
		return runLimit(ctx, x)
	case *plan.OneRow:
		return single(ctx, plan.Schema{}, []value.Row{{}}), nil
	case *plan.MultiJoin:
		return nil, fmt.Errorf("exec: unoptimized MultiJoin reached the executor")
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// scanParts opens the table behind a scan and returns it with the hash keys
// the scan may advertise. A table stored under a partition count other than
// the cluster's is read whole and re-spread round-robin (e.g. a data
// directory reopened under a different layout); the re-spread advertises no
// keys.
func scanParts(ctx *Context, s *plan.Scan) (Table, []string, error) {
	t, err := ctx.Tables.OpenTable(s.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	if t.Parts() == ctx.Cluster.Partitions() {
		return t, scanHashKeys(s), nil
	}
	var all []value.Row
	for part := 0; part < t.Parts(); part++ {
		if err := t.ScanPart(part, func(rows []value.Row) error {
			all = append(all, rows...)
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	return MemTable(ctx.Cluster.ScatterRoundRobin(all)), nil, nil
}

// scanHashKeys returns the hash keys a layout-matching scan may advertise:
// a declared hash-partitioned table scans out pre-placed, so joins and
// groupings on the column skip their shuffle (the paper's "R was already
// partitioned on the join key").
func scanHashKeys(s *plan.Scan) []string {
	if s.Table.PartitionCol == "" {
		return nil
	}
	idx := s.Table.Schema.IndexOf(s.Table.PartitionCol)
	if idx < 0 || idx >= len(s.Out) {
		return nil
	}
	keyCol := &plan.Col{Idx: idx, Name: s.Out[idx].Name, T: s.Out[idx].T}
	return []string{keyCol.String()}
}

func runSort(ctx *Context, s *plan.Sort) (*Relation, error) {
	in, err := Run(ctx, s.Input)
	if err != nil {
		return nil, err
	}
	defer ctx.Timings.Track("sort")()
	// The sort is one task. Each attempt gathers its own copy of the input:
	// the in-memory path sorts that copy in place, the external path reads it
	// without reordering and writes fresh runs into the attempt's scratch.
	var sorted []value.Row
	err = ctx.Cluster.RunTask("sort", taskObs(ctx), func(_, attempt int) (cm cluster.Commit, err error) {
		scr := ctx.Spill.Scratch(attempt)
		defer endScratch(scr, &cm, &err)
		rows := in.Rows()
		if ctx.spillEnabled() {
			rows, err = externalSort(ctx, s.Keys, rows, scr)
		} else {
			err = sortRowsStable(s.Keys, rows)
		}
		if err != nil {
			return cluster.Commit{}, opErr("sort", err)
		}
		// The gather materializes every row on one partition.
		return cluster.Commit{Produced: int64(len(rows)), Install: func() error {
			sorted = rows
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return single(ctx, s.Schema(), sorted), nil
}

// single returns rows as a relation gathered onto partition 0.
func single(ctx *Context, schema plan.Schema, rows []value.Row) *Relation {
	parts := make([][]value.Row, ctx.Cluster.Partitions())
	parts[0] = rows
	return &Relation{Schema: schema, Parts: parts, Single: true}
}

// sortRowsStable stable-sorts rows in place by the order keys.
func sortRowsStable(keys []plan.OrderKey, rows []value.Row) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		c, err := compareRowsByKeys(keys, rows[i], rows[j])
		if err != nil {
			sortErr = err
			return false
		}
		return c < 0
	})
	return sortErr
}

// compareRowsByKeys orders two rows by the sort keys (-1, 0, +1).
func compareRowsByKeys(keys []plan.OrderKey, a, b value.Row) (int, error) {
	for _, k := range keys {
		c, err := compareForSort(a[k.Col], b[k.Col])
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// compareForSort orders values with NULLs first.
func compareForSort(a, b value.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	return a.Compare(b)
}

func runLimit(ctx *Context, l *plan.Limit) (*Relation, error) {
	// The input's stage cuts every partition at l.N rows: production stops
	// there via the selection vector, so the discarded tail of a window is
	// neither materialized nor charged, and a scan stops reading. LIMIT k can
	// never surface more than the first k rows of any partition, and Rows
	// concatenates partitions in order, so the first k of the cut gather equal
	// the first k of the uncut one.
	in, _, err := runStage(ctx, l.Input, &stage{limit: l.N})
	if err != nil {
		return nil, err
	}
	defer ctx.Timings.Track("limit")()
	// The gather is one task, charged for the rows that survive the
	// truncation: what the operator materializes on its output partition.
	var rows []value.Row
	err = ctx.Cluster.RunTask("limit", taskObs(ctx), func(_, _ int) (cluster.Commit, error) {
		gathered := in.Rows()
		if len(gathered) > l.N {
			gathered = gathered[:l.N]
		}
		return cluster.Commit{Produced: int64(len(gathered)), Install: func() error {
			rows = gathered
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return single(ctx, l.Schema(), rows), nil
}
