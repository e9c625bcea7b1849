package main

import (
	"go/ast"
	"go/types"
)

// taskRole classifies a function literal by the cluster-runner contract it is
// executed under.
type taskRole int

const (
	// roleNone: an ordinary closure, no runner contract.
	roleNone taskRole = iota
	// roleCompute: a speculable TaskFn compute passed to ParallelTasks (or
	// the internal parallelTasks/runTask), or an exchange move passed to
	// Exchange. It may run several times concurrently for the same
	// partition, and losing attempts are thrown away — so it must not mutate
	// shared state or charge the budget; all of that belongs in the commit
	// closure it returns.
	roleCompute
	// roleIdem: a closure passed to Parallel/ParallelOp/RunTask.
	// These are retried (never speculated), and their contract is documented
	// idempotence: mutating shared state is allowed, because only the final
	// successful attempt's effects are observable given idempotent writes.
	roleIdem
	// roleCommit: the commit closure a compute returns (an exchange move's
	// install closure). Runs exactly once, for the single winning attempt —
	// the only place task results are installed and stats are charged.
	roleCommit
)

func (r taskRole) String() string {
	switch r {
	case roleCompute:
		return "compute"
	case roleIdem:
		return "retryable"
	case roleCommit:
		return "commit"
	}
	return "none"
}

// runnerShape describes where one cluster-runner method keeps its task
// closure and which closure parameters are the partition / attempt indices.
type runnerShape struct {
	argIdx     int // index of the task closure argument
	partIdx    int // closure parameter index of the partition, or -1
	attemptIdx int // closure parameter index of the attempt, or -1
	role       taskRole
}

// runnerShapes maps Cluster method names to their task-closure shape.
var runnerShapes = map[string]runnerShape{
	"Parallel":      {argIdx: 0, partIdx: 0, attemptIdx: -1, role: roleIdem},
	"ParallelOp":    {argIdx: 1, partIdx: 0, attemptIdx: -1, role: roleIdem},
	"RunTask":       {argIdx: 2, partIdx: -1, attemptIdx: 0, role: roleIdem},
	"ParallelTasks": {argIdx: 2, partIdx: 0, attemptIdx: 1, role: roleCompute},
	"parallelTasks": {argIdx: 3, partIdx: 0, attemptIdx: 1, role: roleCompute},
	"runTask":       {argIdx: 4, partIdx: 0, attemptIdx: 1, role: roleCompute},
	"Exchange":      {argIdx: 2, partIdx: 0, attemptIdx: -1, role: roleCompute},
}

// taskInfo is the classification of one function literal.
type taskInfo struct {
	role    taskRole
	part    types.Object // the partition parameter object, if any
	attempt types.Object // the attempt parameter object, if any
	compute *ast.FuncLit // for a commit: the compute literal that returns it
}

// taskMap classifies every function literal of one file by runner role.
type taskMap struct {
	lits map[*ast.FuncLit]*taskInfo
}

// buildTaskMap scans a file for cluster-runner calls, classifying the task
// literals they are handed, then the commit literals those computes return.
func buildTaskMap(p *Pkg, f *ast.File) *taskMap {
	tm := &taskMap{lits: map[*ast.FuncLit]*taskInfo{}}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || !isClusterMethod(fn, fn.Name()) {
			return true
		}
		shape, ok := runnerShapes[fn.Name()]
		if !ok || shape.argIdx >= len(call.Args) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[shape.argIdx]).(*ast.FuncLit)
		if !ok {
			return true
		}
		info := &taskInfo{role: shape.role}
		params := lit.Type.Params.List
		var flat []*ast.Ident
		for _, field := range params {
			flat = append(flat, field.Names...)
		}
		if shape.partIdx >= 0 && shape.partIdx < len(flat) {
			info.part = p.Info.Defs[flat[shape.partIdx]]
		}
		if shape.attemptIdx >= 0 && shape.attemptIdx < len(flat) {
			info.attempt = p.Info.Defs[flat[shape.attemptIdx]]
		}
		tm.lits[lit] = info
		if shape.role == roleCompute {
			tm.markCommits(p, lit, info)
		}
		return true
	})
	return tm
}

// markCommits finds the commit closures a compute literal returns: a FuncLit
// appearing as the first result of a return statement that belongs to the
// compute itself (not to a nested literal), or an identifier in that position
// that the compute assigned a FuncLit to.
func (tm *taskMap) markCommits(p *Pkg, compute *ast.FuncLit, ci *taskInfo) {
	// Map each local identifier to the FuncLit assigned to it within the
	// compute, so "commit := func() error {...}; return commit, nil" works.
	assigned := map[types.Object]*ast.FuncLit{}
	ast.Inspect(compute.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				if obj := identObj(p, id); obj != nil {
					assigned[obj] = lit
				}
			}
		}
		return true
	})
	mark := func(lit *ast.FuncLit) {
		if _, done := tm.lits[lit]; !done {
			tm.lits[lit] = &taskInfo{role: roleCommit, part: ci.part, attempt: ci.attempt, compute: compute}
		}
	}
	inspectWithStack(compute.Body, func(n ast.Node, stack []ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		// Only returns of the compute itself: no intervening FuncLit.
		for i := len(stack) - 1; i >= 0; i-- {
			if _, isLit := stack[i].(*ast.FuncLit); isLit {
				return true
			}
		}
		switch res := ast.Unparen(ret.Results[0]).(type) {
		case *ast.FuncLit:
			mark(res)
		case *ast.Ident:
			if lit := assigned[identObj(p, res)]; lit != nil {
				mark(lit)
			}
		}
		return true
	})
}

// at returns the task classification in effect at a node with the given
// ancestor stack: the innermost enclosing function literal with a runner
// role. Literals with no recorded role inherit the enclosing classification
// (a helper closure built inside a compute still runs under the compute's
// contract); function declarations reset to roleNone.
func (tm *taskMap) at(stack []ast.Node) *taskInfo {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			if info := tm.lits[n]; info != nil {
				return info
			}
		case *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// atLit is at() plus the literal carrying the role — the scope checkers use
// to test whether an object is declared inside or outside the task body.
func (tm *taskMap) atLit(stack []ast.Node) (*taskInfo, *ast.FuncLit) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			if info := tm.lits[n]; info != nil {
				return info, n
			}
		case *ast.FuncDecl:
			return nil, nil
		}
	}
	return nil, nil
}
