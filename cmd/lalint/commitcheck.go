package main

import (
	"go/ast"
	"go/token"
)

// CommitcheckAnalyzer enforces the compute/commit split of the cluster's
// task runner: a compute closure runs once per attempt and failed attempts
// are discarded, so a write it makes to a captured variable leaks a failed
// attempt's work into its retry and into the install. Computes read
// immutable snapshots and build private results; the Install closure of the
// Commit they return (which runs exactly once) installs them. (Stats need no
// check: only package cluster can write them.) It also flags CheckBudget
// reached from an Install closure: the budget peek is admission control for
// work about to happen, which is the compute's job; by commit time the rows
// already exist.
var CommitcheckAnalyzer = &Analyzer{
	Name: "commitcheck",
	Doc:  "flags captured-state writes inside task computes, and CheckBudget inside Install closures",
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
					} else if facts.ChecksBudget(callee) {
						r.Reportf(call.Pos(), "Install closure reaches CheckBudget via %s; budget admission belongs in compute, before the rows are produced", callee.Name())
					}
				}
				return true
			}
			switch x := n.(type) {
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
	r.Reportf(lhs.Pos(), "compute task writes captured %q declared outside the task; a failed attempt's write leaks into its retry — build the result locally and install it in the Install closure", id.Name)
}
