package main

import (
	"go/ast"
	"go/types"
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

// calleeFunc resolves the called function or method object of a call
// expression, or nil for builtins, conversions, and indirect calls through
// function values.
func calleeFunc(p *Pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOf reports whether fn is a method with the given name on the named
// receiver type declared in a package whose import path ends in pkgSuffix.
func isMethodOf(fn *types.Func, pkgSuffix, recvName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == recvName && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isClusterMethod reports whether fn is the named method on cluster.Cluster.
func isClusterMethod(fn *types.Func, name string) bool {
	return isMethodOf(fn, "internal/cluster", "Cluster", name)
}

// isValuePkgFunc reports whether fn is the named package-level function of
// internal/value.
func isValuePkgFunc(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || recvNamed(fn) != nil {
		return false
	}
	return fn.Pkg() != nil && pathHasSuffix(fn.Pkg().Path(), "internal/value")
}

// namedFrom reports whether t (through one pointer) is the named type
// recvName declared in a package whose path ends in pkgSuffix.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// typeContainsRow reports whether t is, or transitively contains, a
// value.Row, value.Value, or value.Col — the types whose vector/matrix cells
// (or, for the column, whole per-column arrays) alias their backing storage
// and therefore must be deep-cloned or serialized before they are shared
// across partitions or goroutines.
func typeContainsRow(t types.Type) bool {
	return containsRow(t, map[types.Type]bool{})
}

func containsRow(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if namedFrom(t, "internal/value", "Row") || namedFrom(t, "internal/value", "Value") ||
		namedFrom(t, "internal/value", "Col") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return containsRow(u.Elem(), seen)
	case *types.Array:
		return containsRow(u.Elem(), seen)
	case *types.Pointer:
		return containsRow(u.Elem(), seen)
	case *types.Map:
		return containsRow(u.Key(), seen) || containsRow(u.Elem(), seen)
	case *types.Chan:
		return containsRow(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRow(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// rootIdent unwraps index, selector, star, and paren layers and returns the
// base identifier of an lvalue expression (out[part] -> out, s.f[i] -> s),
// or nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(p *Pkg, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node's span.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}
