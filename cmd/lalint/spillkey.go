package main

import (
	"go/ast"
	"go/types"
)

// SpillkeyAnalyzer enforces the spill layer's attempt-keying and lifecycle
// contract. Run writers created inside retryable tasks must be opened with
// NewWriterAt and the live attempt number — a constant attempt (or the
// NewWriter shorthand, which hardcodes attempt 0) means a retried task re-draws
// the same write fault forever and the injector's "final attempt is clean"
// guarantee does nothing. Writers must reach Finish or Abort and readers must
// reach Close on every local path (or escape to an owner that does), and a
// writer or reader captured from an enclosing scope must not be touched inside
// a task closure: a retried attempt would resume a half-written run from the
// failed attempt instead of starting a fresh one.
var SpillkeyAnalyzer = &Analyzer{
	Name: "spillkey",
	Doc:  "flags non-attempt-keyed spill writers, unfinished writers/unclosed readers, and spill handles reused across attempts",
	Run:  runSpillkey,
}

func runSpillkey(pass *Pass) {
	p, r := pass.Pkg, pass.R
	// The spill package itself defines the shorthand and tests the codec.
	if pathHasSuffix(p.Path, "internal/spill") {
		return
	}
	for _, f := range p.Files {
		tm := buildTaskMap(p, f)
		checkAttemptKeying(p, r, f)
		checkCrossAttemptReuse(p, r, tm, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSpillLifecycle(p, r, fd)
			}
		}
	}
}

// checkAttemptKeying flags NewWriter (hardcoded attempt 0) and NewWriterAt
// with a compile-time-constant attempt argument.
func checkAttemptKeying(p *Pkg, r *Reporter, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(p, call)
		switch {
		case isMethodOf(callee, "internal/spill", "Manager", "NewWriter"):
			r.Reportf(call.Pos(), "spill.NewWriter hardcodes attempt 0; use NewWriterAt with the task's attempt so retries re-key the write-fault draw")
		case isMethodOf(callee, "internal/spill", "Manager", "NewWriterAt") && len(call.Args) == 2:
			if tv, ok := p.Info.Types[call.Args[1]]; ok && tv.Value != nil {
				r.Reportf(call.Pos(), "spill.NewWriterAt with constant attempt %s; pass the task's live attempt number so retries re-key the write-fault draw", tv.Value)
			}
		}
		return true
	})
}

// spillHandleType classifies *spill.Writer / *spill.Reader.
func spillHandleType(t types.Type) (string, bool) {
	switch {
	case namedFrom(t, "internal/spill", "Writer"):
		return "writer", true
	case namedFrom(t, "internal/spill", "Reader"):
		return "reader", true
	}
	return "", false
}

// checkCrossAttemptReuse flags a spill writer/reader declared outside a task
// closure but used inside it.
func checkCrossAttemptReuse(p *Pkg, r *Reporter, tm *taskMap, f *ast.File) {
	type key struct {
		obj types.Object
		lit *ast.FuncLit
	}
	reported := map[key]bool{}
	inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		kind, ok := spillHandleType(obj.Type())
		if !ok {
			return true
		}
		info, lit := tm.atLit(stack)
		if info == nil {
			return true
		}
		// A commit belongs to one specific winning attempt; measuring scope
		// against its compute keeps handles created by the compute legal to
		// finish in its own commit.
		scope := ast.Node(lit)
		if info.role == roleCommit && info.compute != nil {
			scope = info.compute
		}
		if declaredWithin(obj, scope) {
			return true
		}
		k := key{obj, lit}
		if !reported[k] {
			reported[k] = true
			r.Reportf(id.Pos(), "spill %s %q is captured from outside the task closure; a retried attempt would reuse the previous attempt's handle — create it inside the task", kind, id.Name)
		}
		return true
	})
}

// checkSpillLifecycle flags, per function declaration, spill writers that
// reach neither Finish nor Abort and readers that never Close. A handle that
// escapes — returned, stored in a field/slice/map, passed to another call —
// transfers the obligation to its new owner and is not flagged.
func checkSpillLifecycle(p *Pkg, r *Reporter, fd *ast.FuncDecl) {
	type handle struct {
		id   *ast.Ident
		kind string
		ok   bool // closed/finished/aborted or escaped
	}
	handles := map[types.Object]*handle{}

	// Collect handles created by this function: w, err := m.NewWriterAt(...),
	// rd, err := run.Reader().
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(p, call)
		var kind string
		switch {
		case isMethodOf(callee, "internal/spill", "Manager", "NewWriter"),
			isMethodOf(callee, "internal/spill", "Manager", "NewWriterAt"):
			kind = "writer"
		case isMethodOf(callee, "internal/spill", "Run", "Reader"):
			kind = "reader"
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(p, id); obj != nil {
				handles[obj] = &handle{id: id, kind: kind}
			}
		}
		return true
	})
	if len(handles) == 0 {
		return
	}

	// Any use that is not a plain method call on the handle is an escape;
	// Finish/Abort/Close method calls discharge the obligation directly.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		h := handles[p.Info.Uses[id]]
		if h == nil || h.ok {
			return true
		}
		use := enclosingUse(fd, id)
		if sel, ok := use.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Finish", "Abort", "Close":
				h.ok = true
			}
			return true
		}
		// Not a method-call receiver: returned, appended, assigned into a
		// structure, passed as an argument — ownership moved.
		h.ok = true
		return true
	})
	for _, h := range handles {
		if !h.ok {
			verb, leak := "Finish or Abort", "the run file leaks until Manager.Close"
			if h.kind == "reader" {
				verb, leak = "Close", "the file handle leaks"
			}
			r.Reportf(h.id.Pos(), "spill %s %q never reaches %s; %s", h.kind, h.id.Name, verb, leak)
		}
	}
}

// enclosingUse returns the innermost expression that consumes the identifier:
// the SelectorExpr if the use is a field/method access, otherwise the node
// itself. Implemented as a positional walk since go/ast has no parent links.
func enclosingUse(fd *ast.FuncDecl, id *ast.Ident) ast.Node {
	var found ast.Node = id
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok && x == id {
			found = sel
			return false
		}
		return true
	})
	return found
}
