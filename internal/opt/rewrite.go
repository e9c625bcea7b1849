package opt

// The algebraic rewrite pass: the paper's §4 argument is that an optimizer
// which understands linear-algebra objects can transform LA expressions the
// way a classical optimizer transforms relational ones. The rules here are
// in the spirit of LaraDB's minimalist kernel and the Typed Linear Algebra
// line of work: typed identities chosen by a cost model over the dimension
// metadata the catalog and the templated builtin signatures already carry.
//
//	matrix-chain reordering     A(BC) vs (AB)C by the classic DP over dims
//	outer-product recognition   col_matrix(x)·row_matrix(y) → outer_product
//	double-transpose            t(t(X)) → X
//	filter pushdown             σ over a pass-through projection commutes
//	aggregate pushdown          f(SUM(X)) → SUM(f(X)) for linear f
//	CSE                         repeated LA subtrees evaluated once
//
// Every rule preserves the node's output schema; rules that re-associate
// floating-point reductions (chain reorder, aggregate pushdown) are exact
// for integer-valued data and within re-association tolerance otherwise,
// while the rest are bit-identical per element.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/types"
)

// RewriteStats counts rewrite-rule firings. All fields are atomic so one
// stats object may be shared by concurrent query compilations.
type RewriteStats struct {
	ChainReorder    atomic.Int64 // matrix chains re-parenthesized
	OuterProduct    atomic.Int64 // col·row products recognized
	DoubleTranspose atomic.Int64 // t(t(X)) collapsed
	FilterPushdown  atomic.Int64 // filters moved below projections
	AggPushdown     atomic.Int64 // linear functions moved inside SUM
	CSE             atomic.Int64 // shared subtrees extracted
}

// Total sums every rule counter.
func (s *RewriteStats) Total() int64 {
	return s.ChainReorder.Load() + s.OuterProduct.Load() + s.DoubleTranspose.Load() +
		s.FilterPushdown.Load() + s.AggPushdown.Load() + s.CSE.Load()
}

// rewrite applies the algebraic rules bottom-up over the whole tree: every
// expression slot gets the expression identities, then a Project or a
// Filter gets its node rules. It runs once, before join ordering; the result
// still contains MultiJoin nodes.
func (o *Optimizer) rewrite(n plan.Node) (plan.Node, error) {
	if _, ok := n.(*plan.Bound); ok {
		return n, nil // already executed: its expressions are spent
	}
	n, err := plan.MapNode(n, o.rewrite, o.rewriteExpr)
	if err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *plan.Project:
		if ag, ok := x.Input.(*plan.Agg); ok {
			if x, err = o.pushAggThroughProject(x, ag); err != nil {
				return nil, err
			}
		}
		// CSE would insert a projection between a Project and its MultiJoin
		// input, hiding the join set from the eager-projection planner; that
		// path gets full-expression dedup from the consumer table instead.
		if _, isMJ := x.Input.(*plan.MultiJoin); !isMJ {
			return o.cseProject(x), nil
		}
		return x, nil
	case *plan.Filter:
		return o.pushFilterDown(x.Input, x.Pred)
	}
	return n, nil
}

// pushFilterDown commutes a predicate below pass-through projections: when
// every column the predicate reads is a bare column reference in the
// projection, the predicate sees identical values below it, and filtering
// first spares the projection's work on doomed rows.
func (o *Optimizer) pushFilterDown(in plan.Node, pred plan.Expr) (plan.Node, error) {
	pj, ok := in.(*plan.Project)
	if !ok {
		return &plan.Filter{Input: in, Pred: pred}, nil
	}
	mapping := map[int]int{}
	for _, idx := range plan.ColsUsed(pred) {
		if idx < 0 || idx >= len(pj.Exprs) {
			return &plan.Filter{Input: in, Pred: pred}, nil
		}
		src, isCol := pj.Exprs[idx].(*plan.Col)
		if !isCol {
			return &plan.Filter{Input: in, Pred: pred}, nil
		}
		mapping[idx] = src.Idx
	}
	below, err := plan.Remap(pred, mapping)
	if err != nil {
		return nil, err
	}
	o.stats.FilterPushdown.Add(1)
	inner, err := o.pushFilterDown(pj.Input, below) // keep pushing through stacked projections
	if err != nil {
		return nil, err
	}
	return &plan.Project{Input: inner, Exprs: pj.Exprs, Out: pj.Out}, nil
}

// pushAggThroughProject rewrites f(SUM(X)) above an aggregation into
// SUM(f(X)) inside it when f is linear (builtins.Builtin.LinearOverSum): the
// aggregation then shuffles and
// accumulates f's (much smaller) output — a scalar per group instead of a
// matrix — which is the dominant cost of a distributed SUM. Applies when the
// aggregate output column is consumed exactly once, directly as f's sole
// argument.
func (o *Optimizer) pushAggThroughProject(p *plan.Project, ag *plan.Agg) (*plan.Project, error) {
	type use struct {
		refs int
		call *plan.Call // sole consuming call when refs == 1 and eligible
	}
	uses := make([]use, len(ag.Aggs))
	base := len(ag.GroupBy)
	record := func(idx int, c *plan.Call) {
		if idx < base || idx >= base+len(uses) {
			return
		}
		u := &uses[idx-base]
		u.refs++
		if u.refs == 1 {
			u.call = c
		} else {
			u.call = nil
		}
	}
	for _, e := range p.Exprs {
		var walk func(expr plan.Expr, parent *plan.Call)
		walk = func(expr plan.Expr, parent *plan.Call) {
			if x, ok := expr.(*plan.Col); ok {
				if parent != nil && len(parent.Args) == 1 && parent.Fn.LinearOverSum {
					record(x.Idx, parent)
				} else {
					record(x.Idx, nil)
				}
				return
			}
			call, _ := expr.(*plan.Call) // only a call is a consuming parent
			for _, a := range plan.Args(expr) {
				walk(a, call)
			}
		}
		walk(e, nil)
	}

	// Rewrite eligible aggregates and substitute the consuming calls.
	replaced := map[*plan.Call]plan.Expr{}
	ng := &plan.Agg{Input: ag.Input, GroupBy: ag.GroupBy, Out: append(plan.Schema{}, ag.Out...)}
	ng.Aggs = append([]plan.AggCall{}, ag.Aggs...)
	changed := false
	for i, u := range uses {
		a := ag.Aggs[i]
		if u.refs != 1 || u.call == nil || a.Spec != builtins.Sum || a.Input == nil {
			continue
		}
		inner := &plan.Call{Fn: u.call.Fn, Args: []plan.Expr{a.Input}, T: u.call.T}
		ng.Aggs[i] = plan.AggCall{Spec: a.Spec, Input: inner, T: u.call.T}
		ng.Out[base+i] = plan.Field{Name: ag.Out[base+i].Name, T: u.call.T}
		replaced[u.call] = &plan.Col{Idx: base + i, Name: ag.Out[base+i].Name, T: u.call.T}
		o.stats.AggPushdown.Add(1)
		changed = true
	}
	if !changed {
		return p, nil
	}
	exprs := make([]plan.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = substituteExpr(e, func(x plan.Expr) plan.Expr {
			if c, ok := x.(*plan.Call); ok {
				if r, hit := replaced[c]; hit {
					return r
				}
			}
			return nil
		})
	}
	return &plan.Project{Input: ng, Exprs: exprs, Out: p.Out}, nil
}

// cseProject extracts subexpressions repeated across a projection's output
// list into a child projection, so each shared LA subtree is evaluated once
// per row instead of once per occurrence.
func (o *Optimizer) cseProject(p *plan.Project) plan.Node {
	counts := map[string]int{}
	reps := map[string]plan.Expr{}
	for _, e := range p.Exprs {
		plan.Walk(e, func(x plan.Expr) {
			if shareableExpr(x) {
				key := x.String()
				counts[key]++
				if _, ok := reps[key]; !ok {
					reps[key] = x
				}
			}
		})
	}
	var keys []string
	for k, c := range counts {
		if c >= 2 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return p
	}
	sort.Strings(keys)
	// Keep only maximal shared subtrees: a candidate nested inside another
	// candidate is already covered by sharing the outer one.
	maximal := keys[:0]
	for _, k := range keys {
		nested := false
		for _, other := range keys {
			if other != k && containsSubexpr(reps[other], k) {
				nested = true
				break
			}
		}
		if !nested {
			maximal = append(maximal, k)
		}
	}
	if len(maximal) == 0 {
		return p
	}

	inSchema := p.Input.Schema()
	lowerExprs := make([]plan.Expr, 0, len(inSchema)+len(maximal))
	lowerOut := make(plan.Schema, 0, len(inSchema)+len(maximal))
	for i, f := range inSchema {
		lowerExprs = append(lowerExprs, &plan.Col{Idx: i, Name: f.Name, T: f.T})
		lowerOut = append(lowerOut, f)
	}
	shared := map[string]*plan.Col{}
	for i, k := range maximal {
		e := reps[k]
		name := fmt.Sprintf("cse%d", i)
		shared[k] = &plan.Col{Idx: len(lowerOut), Name: name, T: e.Type()}
		lowerExprs = append(lowerExprs, e)
		lowerOut = append(lowerOut, plan.Field{Name: name, T: e.Type()})
		o.stats.CSE.Add(1)
	}
	lower := &plan.Project{Input: p.Input, Exprs: lowerExprs, Out: lowerOut}
	exprs := make([]plan.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = substituteExpr(e, func(x plan.Expr) plan.Expr {
			if col, ok := shared[x.String()]; ok {
				return col
			}
			return nil
		})
	}
	return &plan.Project{Input: lower, Exprs: exprs, Out: p.Out}
}

// shareableExpr reports whether a subtree is worth extracting: a builtin
// call that touches a vector or matrix (the per-occurrence evaluation the
// sharing saves is a kernel invocation, not a scalar op).
func shareableExpr(e plan.Expr) bool {
	c, ok := e.(*plan.Call)
	if !ok {
		return false
	}
	if laType(c.T) {
		return true
	}
	for _, a := range c.Args {
		if laType(a.Type()) {
			return true
		}
	}
	return false
}

func laType(t types.T) bool {
	return t.Base == types.Vector || t.Base == types.Matrix
}

// containsSubexpr reports whether key occurs as a proper subtree of e.
func containsSubexpr(e plan.Expr, key string) bool {
	found := false
	first := true
	plan.Walk(e, func(x plan.Expr) {
		if first {
			first = false // skip e itself
			return
		}
		if !found && x.String() == key {
			found = true
		}
	})
	return found
}

// substituteExpr rebuilds e, replacing every subtree for which repl returns
// non-nil. Replacement happens top-down: a replaced subtree is not recursed
// into.
func substituteExpr(e plan.Expr, repl func(plan.Expr) plan.Expr) plan.Expr {
	if r := repl(e); r != nil {
		return r
	}
	out, _ := plan.MapArgs(e, func(a plan.Expr) (plan.Expr, error) { return substituteExpr(a, repl), nil })
	return out
}

// rewriteExpr applies the expression-level identities bottom-up: a call's
// rules run after its arguments are rewritten.
func (o *Optimizer) rewriteExpr(e plan.Expr) (plan.Expr, error) {
	e, err := plan.MapArgs(e, o.rewriteExpr)
	if err != nil {
		return nil, err
	}
	if c, ok := e.(*plan.Call); ok {
		return o.applyCallRules(c), nil
	}
	return e, nil
}

// applyCallRules applies the LA identities rooted at one builtin call.
func (o *Optimizer) applyCallRules(c *plan.Call) plan.Expr {
	switch c.Fn {
	case builtins.TransMatrix:
		// t(t(X)) = X, exactly: transposition only permutes entries.
		if inner, ok := c.Args[0].(*plan.Call); ok && inner.Fn == builtins.TransMatrix {
			o.stats.DoubleTranspose.Add(1)
			return inner.Args[0]
		}
	case builtins.MatrixMultiply:
		// col_matrix(x) · row_matrix(y) is the outer product x yᵀ; each
		// output entry is the single product x_i·y_j either way, so the
		// rewrite is bit-identical and skips materializing the operands.
		if a, ok := c.Args[0].(*plan.Call); ok && a.Fn == builtins.ColMatrix {
			if b, ok := c.Args[1].(*plan.Call); ok && b.Fn == builtins.RowMatrix {
				o.stats.OuterProduct.Add(1)
				return &plan.Call{Fn: builtins.OuterProduct, Args: []plan.Expr{a.Args[0], b.Args[0]}, T: c.T}
			}
		}
		if ne, changed := o.reorderChain(c); changed {
			o.stats.ChainReorder.Add(1)
			return ne
		}
	}
	return c
}

// reorderChain re-parenthesizes a chain of matrix multiplications by the
// classic matrix-chain DP over the dimension metadata: flatten the nested
// calls, minimize Σ r·k·c over split points, rebuild. Unknown dimensions
// cost defaultDim. Returns false when the chain is shorter than three terms
// or already optimally associated.
func (o *Optimizer) reorderChain(c *plan.Call) (plan.Expr, bool) {
	terms := flattenChain(c)
	n := len(terms)
	if n < 3 {
		return nil, false
	}
	dims := make([]float64, n+1)
	for i, t := range terms {
		tt := t.Type()
		if tt.Base != types.Matrix {
			return nil, false
		}
		if i == 0 {
			dims[0] = o.dimSize(tt.Dims[0])
		} else if o.dimSize(tt.Dims[0]) != dims[i] {
			// Dimension metadata disagrees along the chain; don't touch it.
			return nil, false
		}
		dims[i+1] = o.dimSize(tt.Dims[1])
	}
	cost := make([][]float64, n)
	split := make([][]int, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		split[i] = make([]int, n)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			cost[i][j] = math.Inf(1)
			for k := i; k < j; k++ {
				c := cost[i][k] + cost[k+1][j] + dims[i]*dims[k+1]*dims[j+1]
				if c < cost[i][j] {
					cost[i][j] = c
					split[i][j] = k
				}
			}
		}
	}
	rebuilt := buildChain(c.Fn, terms, split, 0, n-1)
	if rebuilt.String() == c.String() {
		return nil, false
	}
	return rebuilt, true
}

// dimSize resolves one dimension against the default for unknowns.
func (o *Optimizer) dimSize(d types.Dim) float64 {
	if d.Known {
		return float64(d.N)
	}
	return defaultDim
}

// flattenChain collects the in-order terms of a matrix_multiply chain.
func flattenChain(e plan.Expr) []plan.Expr {
	if c, ok := e.(*plan.Call); ok && c.Fn == builtins.MatrixMultiply {
		if c.Args[0].Type().Base == types.Matrix && c.Args[1].Type().Base == types.Matrix {
			return append(flattenChain(c.Args[0]), flattenChain(c.Args[1])...)
		}
	}
	return []plan.Expr{e}
}

// buildChain rebuilds the chain for terms[i..j] along the DP's split points.
func buildChain(fn *builtins.Builtin, terms []plan.Expr, split [][]int, i, j int) plan.Expr {
	if i == j {
		return terms[i]
	}
	k := split[i][j]
	l := buildChain(fn, terms, split, i, k)
	r := buildChain(fn, terms, split, k+1, j)
	t := types.TMatrix(l.Type().Dims[0], r.Type().Dims[1])
	return &plan.Call{Fn: fn, Args: []plan.Expr{l, r}, T: t}
}

// ruleNames documents the rule set for reports and tests.
func (s *RewriteStats) String() string {
	parts := []string{}
	add := func(name string, c *atomic.Int64) {
		if v := c.Load(); v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("chain", &s.ChainReorder)
	add("outer", &s.OuterProduct)
	add("trans", &s.DoubleTranspose)
	add("filter", &s.FilterPushdown)
	add("aggpush", &s.AggPushdown)
	add("cse", &s.CSE)
	if len(parts) == 0 {
		return "no rewrites"
	}
	return strings.Join(parts, " ")
}
