package main

import (
	"go/ast"
	"strings"
)

// pathHasSuffix reports whether an import path ends in one of the given
// package suffixes (used to scope analyzers to the simulation/exec paths;
// suffix matching keeps the testdata packages in scope for the tests).
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// enclosingFuncName walks a stack of nodes (outermost first) and returns the
// name of the innermost enclosing function declaration, or "" inside a
// function literal / outside any function.
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return ""
		case *ast.FuncDecl:
			return n.Name.Name
		}
	}
	return ""
}

// inspectWithStack walks the file keeping the ancestor stack (outermost
// first, not including the visited node itself).
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := visit(n, stack)
		stack = append(stack, n)
		if !ok {
			// Still push/pop symmetrically; Inspect will not descend.
			stack = stack[:len(stack)-1]
		}
		return ok
	})
}
