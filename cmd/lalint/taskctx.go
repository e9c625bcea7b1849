package main

import (
	"go/ast"
	"go/types"
)

// taskRole classifies a function literal by its part in the cluster's one
// task contract.
type taskRole int

const (
	// roleCompute: a TaskFn compute passed to ParallelTasks, RunTask or
	// Exchange. It runs once per attempt, and failed attempts are thrown
	// away — so it must not mutate shared state; its counts go in the Commit
	// it returns, and everything it installs goes in that Commit's Install
	// closure.
	roleCompute taskRole = iota
	// roleCommit: the Install closure of the Commit a compute returns. Runs
	// exactly once, for the single winning attempt — the only place task
	// results are installed.
	roleCommit
)

// taskRunners names the Cluster methods that run a TaskFn, all with the same
// shape: the compute is argument 2, and its parameters are the partition and
// the attempt.
var taskRunners = map[string]bool{"ParallelTasks": true, "RunTask": true, "Exchange": true}

// taskInfo is the classification of one function literal.
type taskInfo struct {
	role    taskRole
	part    types.Object // the partition parameter object, if any
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
		if fn == nil || !taskRunners[fn.Name()] || !isClusterMethod(fn, fn.Name()) || len(call.Args) < 3 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
		if !ok {
			return true
		}
		info := &taskInfo{role: roleCompute}
		var flat []*ast.Ident
		for _, field := range lit.Type.Params.List {
			flat = append(flat, field.Names...)
		}
		if len(flat) == 2 {
			info.part = p.Info.Defs[flat[0]]
		}
		tm.lits[lit] = info
		tm.markCommits(p, lit, info)
		return true
	})
	return tm
}

// markCommits finds the install closures a compute literal returns: the
// Install field of a Commit literal that is the first result of a return
// statement belonging to the compute itself (not to a nested literal), either
// a FuncLit or an identifier the compute assigned a FuncLit to.
func (tm *taskMap) markCommits(p *Pkg, compute *ast.FuncLit, ci *taskInfo) {
	// Map each local identifier to the FuncLit assigned to it within the
	// compute, so "install := func() error {...}; return Commit{Install: install}, nil"
	// works.
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
			tm.lits[lit] = &taskInfo{role: roleCommit, part: ci.part, compute: compute}
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
		cm, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range cm.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Install" {
				continue
			}
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.FuncLit:
				mark(v)
			case *ast.Ident:
				if lit := assigned[identObj(p, v)]; lit != nil {
					mark(lit)
				}
			}
		}
		return true
	})
}

// atLit returns the task classification in effect at a node with the given
// ancestor stack — the innermost enclosing function literal with a role —
// and that literal, the scope checkers use to test whether an object is
// declared inside or outside the task body. Literals with no recorded role
// inherit the enclosing classification (a helper closure built inside a
// compute still runs under the compute's contract); function declarations
// reset it to none.
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
