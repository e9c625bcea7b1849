package plan

import (
	"strings"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/types"
)

// Field is one output column of a plan node.
type Field struct {
	Name string
	T    types.T
}

// Schema is the ordered output columns of a plan node.
type Schema []Field

// Types returns the column types.
func (s Schema) Types() []types.T {
	out := make([]types.T, len(s))
	for i, f := range s {
		out[i] = f.T
	}
	return out
}

func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Name + " " + f.T.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Node is a logical plan operator.
type Node interface {
	Schema() Schema
	Children() []Node
}

// Scan reads a stored table.
type Scan struct {
	Table *catalog.TableMeta
	Alias string
	Out   Schema
}

// Schema implements Node.
func (s *Scan) Schema() Schema { return s.Out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Project computes expressions over its input.
type Project struct {
	Input Node
	Exprs []Expr
	Out   Schema
}

// Schema implements Node.
func (p *Project) Schema() Schema { return p.Out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Filter keeps rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (f *Filter) Schema() Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// MultiJoin is the pre-optimization join set: the cross product of Inputs
// filtered by the conjuncts, whose column indexes refer to the concatenation
// of the inputs' schemas in order. The optimizer replaces it with a tree of
// Join/Cross/Filter nodes.
type MultiJoin struct {
	Inputs    []Node
	Conjuncts []Expr
	Out       Schema
}

// Schema implements Node.
func (m *MultiJoin) Schema() Schema { return m.Out }

// Children implements Node.
func (m *MultiJoin) Children() []Node { return m.Inputs }

// Join is a hash equi-join on LKeys[i] == RKeys[i], where the keys are
// expressions over the respective side's schema (so predicates like
// x.id/1000 = ind.mi hash-join too). Residual conjuncts are evaluated over
// the concatenated output.
type Join struct {
	L, R     Node
	LKeys    []Expr // over L's schema
	RKeys    []Expr // over R's schema
	Residual []Expr
	Out      Schema
}

// Schema implements Node.
func (j *Join) Schema() Schema { return j.Out }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Cross is a cross product with optional residual conjuncts (non-equi join
// predicates).
type Cross struct {
	L, R     Node
	Residual []Expr
	Out      Schema
}

// Schema implements Node.
func (c *Cross) Schema() Schema { return c.Out }

// Children implements Node.
func (c *Cross) Children() []Node { return []Node{c.L, c.R} }

// AggCall is one aggregate in an Agg node. Input is nil for COUNT(*).
type AggCall struct {
	Spec  *builtins.AggSpec
	Input Expr
	T     types.T
}

// Fused reports the fused SUM that a is, if any, and the arguments it
// evaluates per row. A SUM over a two-argument outer_product or
// matrix_multiply call accumulates into one buffer instead of materializing a
// result object per row, and evaluates the call's two arguments; the Gram sum
// of one bound column c, matrix_multiply(trans_matrix(c), c), evaluates only
// c, so the transpose never runs. The output matrix's size makes fusion win
// whenever the pattern applies, so this structural test is the whole
// decision. The optimizer's outer-product recognition feeds it:
// SUM(col_matrix(x)·row_matrix(y)) reaches here as SUM(outer_product(x, y)).
func (a AggCall) Fused() (builtins.FusedKind, []Expr) {
	if a.Spec != builtins.Sum || a.Input == nil {
		return builtins.FusedNone, nil
	}
	call, ok := a.Input.(*Call)
	if !ok || len(call.Args) != 2 {
		return builtins.FusedNone, nil
	}
	switch call.Fn {
	case builtins.OuterProduct:
		return builtins.FusedOuterSum, call.Args
	case builtins.MatrixMultiply:
		if t, ok := call.Args[0].(*Call); ok && t.Fn == builtins.TransMatrix && len(t.Args) == 1 {
			c0, ok0 := t.Args[0].(*Col)
			c1, ok1 := call.Args[1].(*Col)
			if ok0 && ok1 && c0.Idx == c1.Idx {
				return builtins.FusedGramSum, call.Args[1:]
			}
		}
		return builtins.FusedMatMulSum, call.Args
	}
	return builtins.FusedNone, nil
}

// Agg groups by the GroupBy expressions and computes the aggregate calls.
// Its output schema is the group expressions followed by the aggregates.
type Agg struct {
	Input   Node
	GroupBy []Expr
	Aggs    []AggCall
	Out     Schema
}

// Schema implements Node.
func (a *Agg) Schema() Schema { return a.Out }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Input} }

// Bound wraps a subtree whose result the executor has already materialized
// during adaptive re-optimization: Rows is the observed cardinality. The
// optimizer treats a Bound node as an opaque leaf with an exact row estimate
// and never rewrites below it; the executor resolves it to the cached
// relation of the wrapped node.
type Bound struct {
	Input Node
	Rows  float64
	Out   Schema
}

// Schema implements Node.
func (b *Bound) Schema() Schema { return b.Out }

// Children implements Node.
func (b *Bound) Children() []Node { return []Node{b.Input} }

// OrderKey is one sort key over the node's output columns.
type OrderKey struct {
	Col  int
	Desc bool
}

// Sort orders rows; it gathers to a single partition.
type Sort struct {
	Input Node
	Keys  []OrderKey
}

// Schema implements Node.
func (s *Sort) Schema() Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }
