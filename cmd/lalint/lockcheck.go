package main

import (
	"go/ast"
)

// LockcheckAnalyzer flags goroutine closures writing captured shared
// variables without a visible lock. Copied sync primitives are go vet's
// copylocks check, and under go 1.22 each loop iteration has its own loop
// variable, so capturing one is no hazard.
var LockcheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "flags goroutine closures writing captured shared state without a lock",
	Run:  runLockcheck,
}

// runLockcheck inspects every `go func(){...}()` statement for writes to
// captured variables without a visible Lock in the surrounding statements.
func runLockcheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoLit(pass.Pkg, pass.R, lit)
				}
			}
			return true
		})
	}
}

// checkGoLit flags the literal's writes to variables declared outside it.
func checkGoLit(p *Pkg, r *Reporter, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if x, ok := n.(*ast.AssignStmt); ok {
			if x.Tok.String() == ":=" {
				return true
			}
			for _, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue // index/field writes have their own ownership story
				}
				obj, ok := p.Info.Uses[id]
				if !ok {
					continue
				}
				if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
					continue // declared inside the closure
				}
				if !writeIsLockGuarded(p, x) {
					r.Reportf(x.Pos(), "goroutine closure writes captured variable %q without holding a lock", id.Name)
				}
			}
		}
		return true
	})
}

// writeIsLockGuarded reports whether the assignment's enclosing block calls
// .Lock() on something before the write (the mutex-guarded error-capture
// idiom); it is a lexical heuristic, not an alias analysis.
func writeIsLockGuarded(p *Pkg, write *ast.AssignStmt) bool {
	guarded := false
	for _, f := range p.Files {
		if write.Pos() < f.Pos() || write.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok || write.Pos() < block.Pos() || write.Pos() > block.End() {
				return true
			}
			for _, stmt := range block.List {
				if stmt.End() > write.Pos() {
					break
				}
				es, ok := stmt.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
					guarded = true
				}
			}
			return true
		})
	}
	return guarded
}
