// Package plan performs semantic analysis over parsed SQL — name
// resolution, type checking with dimension propagation through the templated
// built-in signatures — and produces the logical plan that internal/opt
// optimizes and internal/exec runs.
package plan

import (
	"fmt"
	"slices"

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
}

// Col references a column of the input relation by position.
type Col struct {
	Idx  int
	Name string
	T    types.T
}

// Type implements Expr.
func (c *Col) Type() types.T { return c.T }

func (c *Col) String() string { return fmt.Sprintf("#%d:%s", c.Idx, c.Name) }

// Const is a literal value.
type Const struct {
	V value.Value
	T types.T
}

// Type implements Expr.
func (c *Const) Type() types.T { return c.T }

func (c *Const) String() string { return c.V.String() }

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

// Not is logical negation.
type Not struct {
	E Expr
}

// Type implements Expr.
func (n *Not) Type() types.T { return types.TBool }

func (n *Not) String() string { return "NOT " + n.E.String() }

// Neg is arithmetic negation of a scalar, vector, or matrix.
type Neg struct {
	E Expr
	T types.T
}

// Type implements Expr.
func (n *Neg) Type() types.T { return n.T }

func (n *Neg) String() string { return "-" + n.E.String() }

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

func (s *ScalarSubquery) String() string { return "(subquery)" }

// ColsUsed returns the sorted set of column indexes referenced by e.
func ColsUsed(e Expr) []int {
	seen := map[int]bool{}
	Walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			seen[c.Idx] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// Remap returns a copy of e with every column index i replaced by mapping[i].
// It is how the optimizer rebinds expressions after join reordering and
// column pruning. A missing mapping indicates a planner bug; it is reported
// as an error so the engine can surface it to the query instead of crashing
// the process. A scalar subquery's inner plan references its own tables,
// never the outer row, so it is left alone.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	c, ok := e.(*Col)
	if !ok {
		return MapArgs(e, func(a Expr) (Expr, error) { return Remap(a, mapping) })
	}
	idx, ok := mapping[c.Idx]
	if !ok {
		return nil, fmt.Errorf("plan: Remap has no mapping for column %d (%s)", c.Idx, c.Name)
	}
	return &Col{Idx: idx, Name: c.Name, T: c.T}, nil
}
