package main

import (
	"go/ast"
	"go/types"
)

// ErrcheckAnalyzer flags call statements that drop an error result on the
// floor in non-test code. Assigning to _ is an explicit, visible discard and
// is allowed; the fmt print family is excluded (printing failures are not
// actionable, and builder writes cannot fail).
//
// In internal/spill and the exec operators that use it, a dropped Finish or
// Scratch.Close error would silently truncate a spilled run or leak a scratch
// file. Their error paths need no cleanup of their own: an attempt's runs
// all go when its scratch closes.
var ErrcheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Doc:  "flags dropped error returns in non-test code",
	Run:  runErrcheck,
}

func runErrcheck(p *Pkg, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch x := n.(type) {
			case *ast.ExprStmt:
				call, _ = x.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = x.Call
			case *ast.GoStmt:
				call = x.Call
			}
			if call == nil || !callReturnsError(p, call) || errcheckExcluded(p, call) {
				return true
			}
			r.Reportf(call.Pos(), "result of %s contains an unchecked error; handle it or assign to _ explicitly", callName(p, call))
			return true
		})
	}
}

// callReturnsError reports whether any result of the call has type error.
func callReturnsError(p *Pkg, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	isErr := func(t types.Type) bool {
		return types.TypeString(t, nil) == "error"
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErr(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErr(t)
	}
}

// errcheckExcluded reports whether the callee is on the small exclusion
// list: the fmt print family and writes to in-memory builders/buffers.
func errcheckExcluded(p *Pkg, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := p.Info.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		t := types.TypeString(recv.Type(), nil)
		return t == "*strings.Builder" || t == "*bytes.Buffer"
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	return false
}

// callName renders the callee for the diagnostic message.
func callName(p *Pkg, call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
