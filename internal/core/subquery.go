package core

import (
	"fmt"

	"relalg/internal/exec"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/value"
)

// resolveSubqueries pre-executes every uncorrelated scalar subquery in the
// plan and substitutes its value as a constant: SQL's
// `WHERE dist = (SELECT MAX(dist) FROM d)` becomes a plain comparison
// against the computed maximum. Inner plans are optimized, resolved
// recursively, and run on the same cluster context (so their work shows up
// in the query's stats and budget). An empty subquery result is NULL; more
// than one row is an error. A plan without subqueries is returned as is.
func (db *Database) resolveSubqueries(ctx *exec.Context, n plan.Node) (plan.Node, error) {
	var resolve func(plan.Expr) (plan.Expr, error)
	resolve = func(e plan.Expr) (plan.Expr, error) {
		s, ok := e.(*plan.ScalarSubquery)
		if !ok {
			return plan.MapArgs(e, resolve)
		}
		v, err := db.runScalarSubquery(ctx, s)
		if err != nil {
			return nil, err
		}
		return &plan.Const{V: v, T: s.T}, nil
	}
	var walk func(plan.Node) (plan.Node, error)
	walk = func(n plan.Node) (plan.Node, error) { return plan.MapNode(n, walk, resolve) }
	return walk(n)
}

func (db *Database) runScalarSubquery(ctx *exec.Context, s *plan.ScalarSubquery) (value.Value, error) {
	optimized, err := opt.New(db.cfg.Optimizer).Optimize(s.Plan)
	if err != nil {
		return value.Null(), err
	}
	resolved, err := db.resolveSubqueries(ctx, optimized)
	if err != nil {
		return value.Null(), err
	}
	rel, err := exec.Run(ctx, resolved)
	if err != nil {
		return value.Null(), err
	}
	rows := rel.Rows()
	switch len(rows) {
	case 0:
		return value.Null(), nil
	case 1:
		return rows[0][0], nil
	}
	return value.Null(), fmt.Errorf("core: scalar subquery returned %d rows", len(rows))
}
