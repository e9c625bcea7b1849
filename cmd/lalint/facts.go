package main

import (
	"go/ast"
	"go/types"
)

// effect is a bitset of the budget/accounting side effects a function has,
// directly or through its (module-internal) callees.
type effect uint8

const (
	// effChecksBudget: the function transitively calls Cluster.CheckBudget.
	effChecksBudget effect = 1 << iota
	// effMutatesStats: the function transitively mutates a cluster.Stats
	// counter (Add/Store/... through a Stats-typed receiver chain).
	effMutatesStats
)

// Facts is the program-wide effect table: for each function or method object
// the loader has seen, the effects its body (including nested closures) can
// reach. Analyzer passes use it to see through helper calls — a compute
// closure that calls a helper in another package which mutates the stats is
// as wrong as one that mutates them directly.
type Facts struct {
	effects map[types.Object]effect
}

func newFacts() *Facts {
	return &Facts{effects: map[types.Object]effect{}}
}

// Of returns the recorded effects of a function object (zero for unknown
// objects, e.g. stdlib functions, which never reach the cluster).
func (f *Facts) Of(obj types.Object) effect {
	if obj == nil {
		return 0
	}
	return f.effects[obj]
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

// addPackage computes effect facts for every top-level function and method of
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
			eff := f.bodyEffect(p, fd.body)
			if old := f.effects[fd.obj]; eff|old != old {
				f.effects[fd.obj] = eff | old
				changed = true
			}
		}
	}
}

// bodyEffect scans one function body — including any nested closures, which
// is deliberately conservative: an effect reachable only from a closure the
// function builds still counts as the function's effect.
func (f *Facts) bodyEffect(p *Pkg, body *ast.BlockStmt) effect {
	var eff effect
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isStatsMutation(p, call) {
			eff |= effMutatesStats
			return true
		}
		callee := calleeFunc(p, call)
		if callee == nil {
			return true
		}
		if isClusterMethod(callee, "CheckBudget") {
			eff |= effChecksBudget
		} else {
			eff |= f.effects[callee]
		}
		return true
	})
	return eff
}
