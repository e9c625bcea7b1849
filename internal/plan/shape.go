package plan

import (
	"fmt"
	"slices"
)

// This file is the one place that knows the shape of the plan: which fields
// of each node kind hold child nodes and expressions, and which fields of
// each expression kind hold arguments. Every tree rewrite — subquery
// resolution, the optimizer's passes, column remapping — is a short
// recursion over MapNode and MapArgs, so a new kind is taught here once.

// NodeExprs returns n's expression slots in order: a Project's Exprs, a
// Filter's Pred, a MultiJoin's Conjuncts, a Join's LKeys then RKeys then
// Residual, a Cross's Residual, and an Agg's GroupBy then each non-nil
// aggregate Input. The other kinds have none. The slice may alias n.
func NodeExprs(n Node) []Expr {
	switch x := n.(type) {
	case *Project:
		return x.Exprs
	case *Filter:
		return []Expr{x.Pred}
	case *MultiJoin:
		return x.Conjuncts
	case *Join:
		return slices.Concat(x.LKeys, x.RKeys, x.Residual)
	case *Cross:
		return x.Residual
	case *Agg:
		out := append(make([]Expr, 0, len(x.GroupBy)+len(x.Aggs)), x.GroupBy...)
		for _, a := range x.Aggs {
			if a.Input != nil {
				out = append(out, a.Input)
			}
		}
		return out
	}
	return nil
}

// Rebuild returns a copy of n whose children are kids, in Children order,
// and whose expression slots are exprs, in NodeExprs order; it keeps both
// slices. A leaf (Scan, OneRow) is returned as is, and a kind this file does
// not know is an error.
func Rebuild(n Node, kids []Node, exprs []Expr) (Node, error) {
	switch x := n.(type) {
	case *Scan, *OneRow:
		return n, nil
	case *Project:
		return &Project{Input: kids[0], Exprs: exprs, Out: x.Out}, nil
	case *Filter:
		return &Filter{Input: kids[0], Pred: exprs[0]}, nil
	case *MultiJoin:
		return &MultiJoin{Inputs: kids, Conjuncts: exprs, Out: x.Out}, nil
	case *Join:
		k := len(x.LKeys)
		return &Join{L: kids[0], R: kids[1], LKeys: exprs[:k:k], RKeys: exprs[k : 2*k : 2*k], Residual: exprs[2*k:], Out: x.Out}, nil
	case *Cross:
		return &Cross{L: kids[0], R: kids[1], Residual: exprs, Out: x.Out}, nil
	case *Agg:
		g := len(x.GroupBy)
		aggs, next := make([]AggCall, len(x.Aggs)), g
		for i, a := range x.Aggs {
			aggs[i] = a
			if a.Input != nil {
				aggs[i].Input = exprs[next]
				next++
			}
		}
		return &Agg{Input: kids[0], GroupBy: exprs[:g:g], Aggs: aggs, Out: x.Out}, nil
	case *Bound:
		return &Bound{Input: kids[0], Rows: x.Rows, Out: x.Out}, nil
	case *Sort:
		return &Sort{Input: kids[0], Keys: x.Keys}, nil
	case *Limit:
		return &Limit{Input: kids[0], N: x.N}, nil
	}
	return nil, fmt.Errorf("plan: Rebuild of unknown node %T", n)
}

// MapNode returns n with child applied to each child node and expr to each
// expression slot (a nil expr keeps them). It returns n itself when nothing
// changed, so a pass that rewrites nothing copies nothing.
func MapNode(n Node, child func(Node) (Node, error), expr func(Expr) (Expr, error)) (Node, error) {
	kids, changed, err := mapSlice(n.Children(), child)
	if err != nil {
		return nil, err
	}
	exprs := NodeExprs(n)
	if expr != nil {
		mapped, exprsChanged, err := mapSlice(exprs, expr)
		if err != nil {
			return nil, err
		}
		exprs, changed = mapped, changed || exprsChanged
	}
	if !changed {
		return n, nil
	}
	return Rebuild(n, kids, exprs)
}

// Args returns e's arguments in order; a leaf (Col, Const, ScalarSubquery)
// has none. The slice may alias e.
func Args(e Expr) []Expr {
	switch x := e.(type) {
	case *Binary:
		return []Expr{x.L, x.R}
	case *Not:
		return []Expr{x.E}
	case *Neg:
		return []Expr{x.E}
	case *Call:
		return x.Args
	}
	return nil
}

// withArgs returns a copy of e whose arguments are args, in Args order.
func withArgs(e Expr, args []Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		return &Binary{Op: x.Op, Kind: x.Kind, L: args[0], R: args[1], T: x.T}
	case *Not:
		return &Not{E: args[0]}
	case *Neg:
		return &Neg{E: args[0], T: x.T}
	case *Call:
		return &Call{Fn: x.Fn, Args: args, T: x.T}
	}
	return e
}

// MapArgs returns e with f applied to each argument, or e itself when f
// changed none (always, for a leaf).
func MapArgs(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	args, changed, err := mapSlice(Args(e), f)
	if err != nil {
		return nil, err
	}
	if !changed {
		return e, nil
	}
	return withArgs(e, args), nil
}

// mapSlice applies f to each element, reporting whether any changed. The
// input is returned, not copied, when none did.
func mapSlice[T comparable](xs []T, f func(T) (T, error)) ([]T, bool, error) {
	var out []T
	for i, x := range xs {
		nx, err := f(x)
		if err != nil {
			return nil, false, err
		}
		if nx != x && out == nil {
			out = append(make([]T, 0, len(xs)), xs[:i]...)
		}
		if out != nil {
			out = append(out, nx)
		}
	}
	if out == nil {
		return xs, false, nil
	}
	return out, true, nil
}

// Walk calls fn on e and then on each of its subexpressions, depth first.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, a := range Args(e) {
		Walk(a, fn)
	}
}
