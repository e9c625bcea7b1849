package main

import (
	"go/ast"
	"go/token"
)

// CommitcheckAnalyzer enforces the compute/commit split of the cluster's
// task runner: a compute closure may run concurrently with a speculated
// duplicate of itself and losing attempts are discarded, so any write it
// makes to state outside its own body — a cluster.Stats counter or a captured
// variable — is observable from attempts that were supposed to never have
// happened. Computes read immutable snapshots and build private results; the
// Install closure of the Commit they return (which runs exactly once)
// installs them. It also flags CheckBudget reached from an Install closure:
// the budget peek is admission control for work about to happen, which is
// the compute's job; by commit time the rows already exist.
var CommitcheckAnalyzer = &Analyzer{
	Name: "commitcheck",
	Doc:  "flags Stats mutation and captured-state writes inside task computes, and CheckBudget inside Install closures",
	Run:  runCommitcheck,
}

func runCommitcheck(pass *Pass) {
	p, r := pass.Pkg, pass.R
	facts := pass.Prog.facts
	for _, f := range p.Files {
		tm := buildTaskMap(p, f)
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			info, lit := tm.atLit(stack)
			if info == nil {
				return true
			}
			if info.role == roleCommit {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(p, call); isClusterMethod(callee, "CheckBudget") {
						r.Reportf(call.Pos(), "Install closure calls CheckBudget; budget admission belongs in compute, before the rows are produced")
					} else if facts.Of(callee)&effChecksBudget != 0 {
						r.Reportf(call.Pos(), "Install closure reaches CheckBudget via %s; budget admission belongs in compute, before the rows are produced", callee.Name())
					}
				}
				return true
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				if isStatsMutation(p, x) {
					r.Reportf(x.Pos(), "compute task mutates cluster stats; speculated attempts double-count — return the counts in its Commit")
					return true
				}
				if callee := calleeFunc(p, x); facts.Of(callee)&effMutatesStats != 0 {
					r.Reportf(x.Pos(), "compute task calls %s, which mutates cluster stats; speculated attempts double-count — return the counts in its Commit", callee.Name())
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					break
				}
				for _, lhs := range x.Lhs {
					reportCapturedWrite(p, r, lit, lhs)
				}
			case *ast.IncDecStmt:
				reportCapturedWrite(p, r, lit, x.X)
			}
			return true
		})
	}
}

// reportCapturedWrite flags a write through an lvalue whose root identifier
// is declared outside the compute literal. Writes in an Install closure
// nested in the compute are that closure's business, and atLit already
// resolved the innermost role, so lit here really is the compute body.
func reportCapturedWrite(p *Pkg, r *Reporter, lit *ast.FuncLit, lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj := identObj(p, id)
	if obj == nil || declaredWithin(obj, lit) {
		return
	}
	// Package-level and method-receiver state counts too; only truly local
	// declarations (parameters included — they are inside the literal's span)
	// are private to the attempt.
	r.Reportf(lhs.Pos(), "compute task writes captured %q declared outside the task; speculated attempts race — build the result locally and install it in the Install closure", id.Name)
}
