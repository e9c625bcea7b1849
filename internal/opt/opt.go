// Package opt is the cost-based query optimizer. Its distinguishing feature
// — the paper's §4 contribution — is that it is "linear-algebra aware": the
// byte widths of VECTOR and MATRIX columns and of expressions over them
// (inferred through the templated function signatures) drive the cost model,
// and projections that shrink tuples (such as an 80 MB matrix_multiply whose
// result is 8 KB) may be evaluated eagerly, as soon as a join subtree covers
// their inputs. Join enumeration is dynamic programming over relation
// subsets with cross products allowed, which is what lets the optimizer find
// the paper's π(S×R)⋈T plan.
package opt

import (
	"math"

	"relalg/internal/plan"
	"relalg/internal/types"
)

// defaultDim is the assumed size of an unknown VECTOR[]/MATRIX[][] dimension
// in the cost model.
const defaultDim = 100

// Options control the optimizer; the zero value is NOT useful — use
// DefaultOptions.
type Options struct {
	// SizeAwareCosting uses inferred linear-algebra object sizes as column
	// widths. Disabling it (ablation A1) makes every column a fixed 16
	// bytes, blinding the optimizer exactly the way §4.1 describes.
	SizeAwareCosting bool
	// EagerProjection allows projection expressions to be computed as soon
	// as a join subtree covers their inputs (ablation A2).
	EagerProjection bool
	// MaxDPRelations bounds exhaustive DP enumeration; larger join sets
	// fall back to a greedy pairing.
	MaxDPRelations int
	// Rewrites enables the algebraic rewrite pass that runs before join
	// ordering: matrix-chain reordering, outer-product recognition,
	// double-transpose elimination, filter pushdown through projections,
	// aggregate pushdown through linear LA functions, and
	// common-subexpression elimination. (Aggregate fusion is not a rewrite:
	// plan.AggCall.Fused alone decides it.) Disabling it (ablation; the
	// benchmark's baseline leg) leaves expressions exactly as the builder
	// produced them.
	Rewrites bool
	// Stats, when non-nil, counts the rewrite rules that fire; the benchmark
	// harness uses it to hard-fail sweeps where no rewrite applied.
	Stats *RewriteStats
}

// DefaultOptions enables the full §4 behaviour.
func DefaultOptions() Options {
	return Options{
		SizeAwareCosting: true,
		EagerProjection:  true,
		MaxDPRelations:   10,
		Rewrites:         true,
	}
}

// Optimizer rewrites logical plans.
type Optimizer struct {
	opts  Options
	stats *RewriteStats
}

// New returns an optimizer with the given options.
func New(opts Options) *Optimizer {
	if opts.MaxDPRelations <= 0 {
		opts.MaxDPRelations = 10
	}
	st := opts.Stats
	if st == nil {
		st = &RewriteStats{}
	}
	return &Optimizer{opts: opts, stats: st}
}

// Optimize rewrites the plan: the algebraic rewrite pass normalizes the
// expression trees, then MultiJoin nodes become ordered Join/Cross trees
// with pushed-down filters and (optionally) eager projections.
func (o *Optimizer) Optimize(n plan.Node) (plan.Node, error) {
	if o.opts.Rewrites {
		rw, err := o.rewrite(n)
		if err != nil {
			return nil, err
		}
		n = rw
	}
	return o.optimizeNode(n)
}

// optimizeNode is the join-ordering pass; the rewrite pass (when enabled)
// already ran over the whole tree, so internal recursion re-enters here.
// Every node other than the three below keeps its expressions and has its
// children planned.
func (o *Optimizer) optimizeNode(n plan.Node) (plan.Node, error) {
	switch x := n.(type) {
	case *plan.Project, *plan.Agg:
		// A projection's expressions, or an aggregate's group keys and
		// aggregate inputs, are the expressions consumed above the join.
		if mj, ok := n.Children()[0].(*plan.MultiJoin); ok {
			node, rewritten, err := o.planMultiJoin(mj, plan.NodeExprs(n))
			if err != nil {
				return nil, err
			}
			return plan.Rebuild(n, []plan.Node{node}, rewritten)
		}
	case *plan.Bound:
		// A Bound subtree was already executed; re-optimizing below it would
		// desynchronize the node identity the executor's cache is keyed on.
		return x, nil
	case *plan.MultiJoin:
		// A bare MultiJoin (no consumer expressions): keep every column.
		idents := make([]plan.Expr, len(x.Out))
		for i, f := range x.Out {
			idents[i] = &plan.Col{Idx: i, Name: f.Name, T: f.T}
		}
		node, rewritten, err := o.planMultiJoin(x, idents)
		if err != nil {
			return nil, err
		}
		return &plan.Project{Input: node, Exprs: rewritten, Out: x.Out}, nil
	}
	return plan.MapNode(n, o.optimizeNode, nil)
}

// colWidth is the costed byte width of a type.
func (o *Optimizer) colWidth(t types.T) float64 {
	if !o.opts.SizeAwareCosting {
		return 16
	}
	return t.SizeBytes(defaultDim)
}

// EstimateRows gives a rough cardinality for any plan node; exact for stored
// tables, heuristic for derived inputs.
func EstimateRows(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		return math.Max(1, float64(x.Table.RowCount()))
	case *plan.Filter:
		rows := EstimateRows(x.Input)
		return math.Max(1, rows*filterSelectivity(x.Input, x.Pred, rows))
	case *plan.Project:
		return EstimateRows(x.Input)
	case *plan.Bound:
		return math.Max(1, x.Rows)
	case *plan.Agg:
		if len(x.GroupBy) == 0 {
			return 1
		}
		return math.Max(1, EstimateRows(x.Input)/10)
	case *plan.Sort:
		return EstimateRows(x.Input)
	case *plan.Limit:
		return math.Min(float64(x.N), EstimateRows(x.Input))
	case *plan.Join:
		// Key-aware equi-join selectivity: matching rows pair up through the
		// key's value space, so the join produces |L|·|R|/max(d_L, d_R) rows
		// per key (the classic System R estimate), not a fixed tenth.
		l, r := EstimateRows(x.L), EstimateRows(x.R)
		rows := l * r
		if len(x.LKeys) == 0 {
			return math.Max(1, rows/10)
		}
		for i := range x.LKeys {
			d := math.Max(distinctOf(x.L, x.LKeys[i], l), distinctOf(x.R, x.RKeys[i], r))
			rows /= math.Max(1, d)
		}
		return math.Max(1, rows)
	case *plan.Cross:
		return EstimateRows(x.L) * EstimateRows(x.R)
	case *plan.MultiJoin:
		r := 1.0
		for _, in := range x.Inputs {
			r *= EstimateRows(in)
		}
		return r
	case *plan.OneRow:
		return 1
	default:
		return 1
	}
}

// distinctOf estimates the number of distinct values of a join key
// expression over the given input. Only simple column references that trace
// back to base tables get catalog statistics; everything else defaults to
// the row count. Projections that merely pass a column through keep its
// source statistics (losing them was how join selectivity silently fell
// back to the row count whenever an input was pruned or eagerly projected).
func distinctOf(input plan.Node, key plan.Expr, rows float64) float64 {
	col, ok := key.(*plan.Col)
	if !ok {
		return math.Max(1, rows)
	}
	switch x := input.(type) {
	case *plan.Scan:
		return clampDistinct(x.Table.Distinct(col.Name), rows)
	case *plan.Filter:
		return distinctOf(x.Input, key, rows)
	case *plan.Bound:
		return distinctOf(x.Input, key, math.Min(rows, math.Max(1, x.Rows)))
	case *plan.Project:
		if col.Idx >= 0 && col.Idx < len(x.Exprs) {
			if src, isCol := x.Exprs[col.Idx].(*plan.Col); isCol {
				return distinctOf(x.Input, src, rows)
			}
		}
	}
	return math.Max(1, rows)
}

// filterSelectivity estimates the fraction of rows surviving a predicate:
// an equality against a constant keeps one value's share of the column's
// distinct values, conjunctions multiply, and anything else keeps the
// traditional third.
func filterSelectivity(input plan.Node, pred plan.Expr, rows float64) float64 {
	if be, ok := pred.(*plan.Binary); ok {
		switch {
		case be.Kind == plan.BinLogic && be.Op == "AND":
			return filterSelectivity(input, be.L, rows) * filterSelectivity(input, be.R, rows)
		case be.Kind == plan.BinCompare && be.Op == "=":
			var colSide plan.Expr
			if _, isConst := be.R.(*plan.Const); isConst {
				colSide = be.L
			} else if _, isConst := be.L.(*plan.Const); isConst {
				colSide = be.R
			}
			if col, isCol := colSide.(*plan.Col); isCol {
				return 1 / distinctOf(input, col, rows)
			}
		}
	}
	return 1.0 / 3
}

func clampDistinct(d, rows float64) float64 {
	if d < 1 {
		d = 1
	}
	if rows >= 1 && d > rows {
		d = rows
	}
	return d
}

func subsetBits(s uint) []int {
	var out []int
	for i := 0; s != 0; i++ {
		if s&1 != 0 {
			out = append(out, i)
		}
		s >>= 1
	}
	return out
}
