package exec

import (
	"errors"
	"fmt"

	"relalg/internal/plan"
	"relalg/internal/value"
)

// This file is the executor's streaming path over persistent storage: when
// the table source exposes paged tables, the fused scan→filter→project
// pipeline pulls one page at a time through the buffer pool instead of
// materializing whole partitions. Each page decodes straight into value.Col
// windows, so the stored data never takes row form unless an expression's
// scalar fallback asks for a row.

// PagedTable is one stored table the executor can stream page by page.
type PagedTable interface {
	// Parts is the stored partition count.
	Parts() int
	// ScanPartBatches streams one partition's pages as columnar batches.
	ScanPartBatches(part int, fn func(b *value.Batch) error) error
}

// PagedSource is optionally implemented by Context.Tables. TablePager
// returns (nil, nil) when the source has no paged storage at all; an error
// is deferred to the materialized path, which will surface it.
type PagedSource interface {
	TablePager(name string) (PagedTable, error)
}

// pagedScan resolves the paged table behind a scan when streaming is
// possible: the table source is paged and the stored partitioning matches
// the cluster shape. A mismatched layout needs the materialized re-spread
// path, and a lookup error is left for it to report.
func pagedScan(ctx *Context, s *plan.Scan) PagedTable {
	ps, ok := ctx.Tables.(PagedSource)
	if !ok {
		return nil
	}
	pt, err := ps.TablePager(s.Table.Name)
	if err != nil || pt == nil {
		return nil
	}
	if pt.Parts() != ctx.Cluster.Partitions() {
		return nil
	}
	return pt
}

// errPagedStop ends a page scan early (a pushed-down LIMIT is satisfied).
var errPagedStop = errors.New("exec: stop paged scan")

// runPipelinePaged executes a fused Project?(Filter*(Scan)) chain by
// streaming pages: each partition holds one pinned page at a time, so the
// working set is bounded by the buffer pool, not the table size.
func runPipelinePaged(ctx *Context, sp *plan.Pipeline, pt PagedTable, limit int) (*Relation, error) {
	defer ctx.Timings.Track("pipeline")()
	out := make([][]value.Row, ctx.Cluster.Partitions())
	ec := ctx.EvalCtx()
	err := ctx.Cluster.ParallelTasks("pipeline", taskObs(ctx), func(part, _ int) (func() error, error) {
		rows, err := pagedBatchPart(ec, sp, pt, part, limit)
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
	rel := &Relation{Schema: sp.Out, Parts: out}
	if sp.Exprs == nil {
		rel.HashKeys = scanHashKeys(sp.Scan)
	}
	if err := ctx.Cluster.ChargeTuples(int64(rel.NumRows())); err != nil {
		return nil, opErr("pipeline", err)
	}
	return rel, nil
}

// pagedBatchPart is the vectorized pipeline body over one partition's pages.
// The window is the page itself: its decoded columnar batch feeds EvalVec
// directly, selection vectors thread the filters, and only surviving lanes
// materialize as rows.
func pagedBatchPart(ec *plan.EvalCtx, sp *plan.Pipeline, pt PagedTable, part, limit int) ([]value.Row, error) {
	var (
		out   []value.Row
		arena rowArena
		sbuf  []int32
	)
	var cols []*value.Col
	if sp.Exprs != nil {
		cols = make([]*value.Col, len(sp.Exprs))
	}
	err := pt.ScanPartBatches(part, func(b *value.Batch) error {
		if limit >= 0 && len(out) >= limit {
			return errPagedStop
		}
		src := pageSource{b: b}
		n := b.N
		sel := []int32(nil) // nil = every lane live
		for _, pred := range sp.Filters {
			col, err := plan.EvalVec(ec, pred, &src, sel)
			if err != nil {
				return err
			}
			sbuf = filterSel(col, n, sel, sbuf)
			sel = sbuf
			if len(sel) == 0 {
				return nil
			}
		}
		if limit >= 0 {
			remaining := limit - len(out)
			if sel == nil && n > remaining {
				sel = allSel(sbuf, n)[:remaining]
			} else if sel != nil && len(sel) > remaining {
				sel = sel[:remaining]
			}
		}
		emitCols := cols
		width := len(sp.Exprs)
		if sp.Exprs == nil {
			// No projection: emit the page's own columns.
			emitCols = make([]*value.Col, len(b.Cols))
			for j := range b.Cols {
				emitCols[j] = &b.Cols[j]
			}
			width = len(b.Cols)
		} else {
			for j, e := range sp.Exprs {
				c, err := plan.EvalVec(ec, e, &src, sel)
				if err != nil {
					return err
				}
				emitCols[j] = c
			}
		}
		emit := func(i int) {
			nr := arena.alloc(width)
			for j := range emitCols {
				nr[j] = emitCols[j].Value(i)
			}
			out = append(out, nr)
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				emit(i)
			}
		} else {
			for _, i := range sel {
				emit(int(i))
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errPagedStop) {
		return nil, err
	}
	return out, nil
}

// pageSource adapts a decoded page batch to plan.BatchSource.
type pageSource struct {
	b *value.Batch
}

// BatchLen implements plan.BatchSource.
func (s *pageSource) BatchLen() int { return s.b.N }

// BatchCol implements plan.BatchSource.
func (s *pageSource) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= len(s.b.Cols) {
		return nil, fmt.Errorf("exec: column index %d out of range for page of %d columns", idx, len(s.b.Cols))
	}
	return &s.b.Cols[idx], nil
}

// BatchRow implements plan.BatchSource (scalar fallback).
func (s *pageSource) BatchRow(i int) value.Row {
	r := make(value.Row, len(s.b.Cols))
	for j := range s.b.Cols {
		r[j] = s.b.Cols[j].Value(i)
	}
	return r
}
