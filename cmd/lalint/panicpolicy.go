package main

import (
	"go/ast"
	"go/types"
)

// PanicpolicyAnalyzer flags panic calls in library packages. Operator and
// harness code must return errors; the only sanctioned panics are dimension
// invariant checks in internal/value and internal/linalg, and explicit
// Must*/must* helpers whose contract is to panic (the Go convention for
// opting in at the call site). internal/spill is deliberately NOT on the
// allowlist: every filesystem failure there (create, write, close, remove)
// must surface as a wrapped error so a full disk degrades into a failed
// query, not a crashed process.
var PanicpolicyAnalyzer = &Analyzer{
	Name: "panicpolicy",
	Doc:  "flags panic in library packages outside the value/linalg invariant allowlist and Must* helpers",
	Run:  runPanicpolicy,
}

// panicAllowedPkgs are the packages whose dimension-invariant panics are
// sanctioned.
var panicAllowedPkgs = []string{
	"internal/value",
	"internal/linalg",
}

func runPanicpolicy(p *Pkg, r *Reporter) {
	if !pathContainsInternal(p.Path) || pathHasSuffix(p.Path, panicAllowedPkgs...) {
		return
	}
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			name := enclosingFuncName(stack)
			if len(name) >= 4 && (name[:4] == "Must" || name[:4] == "must") {
				return true
			}
			r.Reportf(call.Pos(), "panic in library code; return an error (or expose a Must* helper for callers that want to panic)")
			return true
		})
	}
}

func pathContainsInternal(path string) bool {
	return pathHasSuffix(path, "internal") || containsSegment(path, "internal")
}

func containsSegment(path, seg string) bool {
	for i := 0; i+len(seg) <= len(path); i++ {
		if path[i:i+len(seg)] == seg {
			pre := i == 0 || path[i-1] == '/'
			post := i+len(seg) == len(path) || path[i+len(seg)] == '/'
			if pre && post {
				return true
			}
		}
	}
	return false
}
