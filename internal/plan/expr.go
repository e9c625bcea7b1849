// Package plan performs semantic analysis over parsed SQL — name
// resolution, type checking with dimension propagation through the templated
// built-in signatures — and produces the logical plan that internal/opt
// optimizes and internal/exec runs.
package plan

import (
	"fmt"

	"relalg/internal/builtins"
	"relalg/internal/types"
	"relalg/internal/value"
)

// EvalCtx is the per-query evaluation context threaded into every EvalVec.
// It aliases builtins.EvalCtx so the executor can hand one object to both
// expression evaluation and direct builtin calls.
type EvalCtx = builtins.EvalCtx

// Expr is a type-checked expression over the columns of its input relation,
// evaluated a window at a time by EvalVec. Expressions are pure and the
// context is read-only, so the optimizer may move, duplicate, and
// pre-evaluate them freely, and one plan may be evaluated by many queries
// concurrently.
type Expr interface {
	Type() types.T
	String() string
	// Walk visits this node and all children.
	Walk(fn func(Expr))
}

// Col references a column of the input relation by position.
type Col struct {
	Idx  int
	Name string
	T    types.T
}

// Type implements Expr.
func (c *Col) Type() types.T { return c.T }

func (c *Col) String() string     { return fmt.Sprintf("#%d:%s", c.Idx, c.Name) }
func (c *Col) Walk(fn func(Expr)) { fn(c) }

// Const is a literal value.
type Const struct {
	V value.Value
	T types.T
}

// Type implements Expr.
func (c *Const) Type() types.T { return c.T }

func (c *Const) String() string     { return c.V.String() }
func (c *Const) Walk(fn func(Expr)) { fn(c) }

// BinKind classifies a Binary expression.
type BinKind uint8

// Binary expression kinds.
const (
	BinArith   BinKind = iota // + - * /
	BinCompare                // = <> < <= > >=
	BinLogic                  // AND OR
)

// Binary is a binary operation with SQL overloading: arithmetic follows the
// paper's element-wise/broadcast rules, comparisons yield BOOLEAN, and
// logic is two-valued with NULL treated as FALSE (sufficient for the
// paper's workloads; documented deviation from three-valued SQL).
type Binary struct {
	Op   string
	Kind BinKind
	L, R Expr
	T    types.T
}

// Type implements Expr.
func (b *Binary) Type() types.T { return b.T }

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (b *Binary) Walk(fn func(Expr)) {
	fn(b)
	b.L.Walk(fn)
	b.R.Walk(fn)
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Type implements Expr.
func (n *Not) Type() types.T { return types.TBool }

func (n *Not) String() string     { return "NOT " + n.E.String() }
func (n *Not) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// Neg is arithmetic negation of a scalar, vector, or matrix.
type Neg struct {
	E Expr
	T types.T
}

// Type implements Expr.
func (n *Neg) Type() types.T { return n.T }

func (n *Neg) String() string     { return "-" + n.E.String() }
func (n *Neg) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// Call invokes a scalar built-in.
type Call struct {
	Fn   *builtins.Builtin
	Args []Expr
	T    types.T
}

// Type implements Expr.
func (c *Call) Type() types.T { return c.T }

func (c *Call) String() string {
	s := c.Fn.Name + "("
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

func (c *Call) Walk(fn func(Expr)) {
	fn(c)
	for _, a := range c.Args {
		a.Walk(fn)
	}
}

// ScalarSubquery is an uncorrelated scalar subquery used as an expression.
// The engine pre-executes the inner plan and substitutes its single value
// (NULL for an empty result) before physical execution; EvalVec refuses one
// that reaches it, since that substitution was skipped.
type ScalarSubquery struct {
	Plan Node
	T    types.T
}

// Type implements Expr.
func (s *ScalarSubquery) Type() types.T { return s.T }

func (s *ScalarSubquery) String() string     { return "(subquery)" }
func (s *ScalarSubquery) Walk(fn func(Expr)) { fn(s) }

// ColsUsed returns the sorted set of column indexes referenced by e.
func ColsUsed(e Expr) []int {
	seen := map[int]bool{}
	e.Walk(func(x Expr) {
		if c, ok := x.(*Col); ok {
			seen[c.Idx] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Remap returns a copy of e with every column index i replaced by mapping[i].
// It is how the optimizer rebinds expressions after join reordering and
// column pruning. A missing mapping or an unknown expression type indicates
// a planner bug; it is reported as an error so the engine can surface it to
// the query instead of crashing the process.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	switch x := e.(type) {
	case *Col:
		idx, ok := mapping[x.Idx]
		if !ok {
			return nil, fmt.Errorf("plan: Remap has no mapping for column %d (%s)", x.Idx, x.Name)
		}
		return &Col{Idx: idx, Name: x.Name, T: x.T}, nil
	case *Const:
		return x, nil
	case *Binary:
		l, err := Remap(x.L, mapping)
		if err != nil {
			return nil, err
		}
		r, err := Remap(x.R, mapping)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, Kind: x.Kind, L: l, R: r, T: x.T}, nil
	case *Not:
		inner, err := Remap(x.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *Neg:
		inner, err := Remap(x.E, mapping)
		if err != nil {
			return nil, err
		}
		return &Neg{E: inner, T: x.T}, nil
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := Remap(a, mapping)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &Call{Fn: x.Fn, Args: args, T: x.T}, nil
	case *ScalarSubquery:
		// The inner plan references its own tables, never the outer row.
		return x, nil
	}
	return nil, fmt.Errorf("plan: Remap of unknown expression %T", e)
}
