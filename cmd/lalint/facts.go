package main

import (
	"go/ast"
	"go/types"
)

// Facts is the program-wide effect table: the function and method objects
// the loader has seen whose body (including nested closures) reaches
// Cluster.CheckBudget, directly or through module-internal callees. Analyzer
// passes use it to see through helper calls — an Install closure that calls
// a helper in another package which peeks at the budget is as wrong as one
// that peeks directly.
type Facts struct {
	checksBudget map[types.Object]bool
}

func newFacts() *Facts {
	return &Facts{checksBudget: map[types.Object]bool{}}
}

// ChecksBudget reports whether a function object reaches CheckBudget (false
// for unknown objects, e.g. stdlib functions, which never reach the cluster).
func (f *Facts) ChecksBudget(obj types.Object) bool {
	return obj != nil && f.checksBudget[obj]
}

// ensureFacts folds every not-yet-processed package of the loader into the
// effect table. loader.Order is dependency-ordered, so by the time a package
// is processed its module-internal callees already have their facts; an
// intra-package fixpoint handles same-package (including mutually recursive)
// helpers.
func (prog *Program) ensureFacts() {
	order := prog.loader.Order
	for ; prog.facted < len(order); prog.facted++ {
		prog.facts.addPackage(order[prog.facted])
	}
}

// addPackage computes the fact for every top-level function and method of
// one package, iterating to a fixpoint so same-package helper chains resolve
// regardless of declaration order.
func (f *Facts) addPackage(p *Pkg) {
	type fn struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var fns []fn
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fns = append(fns, fn{obj: obj, body: fd.Body})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			if !f.checksBudget[fd.obj] && f.bodyChecksBudget(p, fd.body) {
				f.checksBudget[fd.obj] = true
				changed = true
			}
		}
	}
}

// bodyChecksBudget scans one function body — including any nested closures,
// which is deliberately conservative: a CheckBudget reachable only from a
// closure the function builds still counts as the function's.
func (f *Facts) bodyChecksBudget(p *Pkg, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			callee := calleeFunc(p, call)
			found = callee != nil && (isClusterMethod(callee, "CheckBudget") || f.checksBudget[callee])
		}
		return !found
	})
	return found
}
