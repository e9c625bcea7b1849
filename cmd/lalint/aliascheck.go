package main

import (
	"go/ast"
)

// AliascheckAnalyzer guards the partition-isolation invariant: a value.Row's
// vector and matrix cells alias their backing arrays, so a row that crosses a
// partition or goroutine boundary un-copied is shared mutable state — one
// partition's in-place kernel write silently corrupts another's input. Rows
// must cross through value.DeepClone or the row codec (Encode/DecodeRow), the
// same path a real networked shuffle would force. The checker flags channel
// sends of row-bearing values and, inside task closures, stores of
// row-bearing values into captured structures under a partition index other
// than the task's own, unless the value visibly came from a cloning or
// decoding call.
var AliascheckAnalyzer = &Analyzer{
	Name: "aliascheck",
	Doc:  "flags value.Row data crossing partition/channel boundaries without DeepClone or the row codec",
	Run:  runAliascheck,
}

// aliasScope: the packages that move rows between partitions or across
// connections. internal/opt is included because adaptive re-planning hands
// executed leaf relations (row-bearing Bound inputs) back through the
// optimizer.
var aliasScope = []string{
	"internal/cluster",
	"internal/exec",
	"internal/serve",
	"internal/storage",
	"internal/opt",
}

func runAliascheck(pass *Pass) {
	p, r := pass.Pkg, pass.R
	if !pathHasSuffix(p.Path, aliasScope...) {
		return
	}
	for _, f := range p.Files {
		tm := buildTaskMap(p, f)
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.SendStmt:
				tv, ok := p.Info.Types[x.Value]
				if !ok || !typeContainsRow(tv.Type) {
					return true
				}
				if sanitizedOrigin(p, f, x.Value) {
					return true
				}
				r.Reportf(x.Pos(), "row-bearing value sent over a channel without DeepClone or the row codec; the receiver aliases the sender's cell arrays")
			case *ast.AssignStmt:
				info, lit := tm.atLit(stack)
				if info == nil {
					return true
				}
				scope := ast.Node(lit)
				if info.role == roleCommit && info.compute != nil {
					scope = info.compute
				}
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					checkCrossPartitionStore(p, r, info, scope, lhs, x.Rhs[i], f)
				}
			}
			return true
		})
	}
}

// checkCrossPartitionStore flags `captured[i] = rows` inside a task when i is
// not the task's own partition parameter and rows carries value.Row data that
// did not pass through a sanitizing call. Stores under the task's own
// partition index are the result-installation idiom — the row stays inside
// its partition, no aliasing is created.
func checkCrossPartitionStore(p *Pkg, r *Reporter, info *taskInfo, scope ast.Node, lhs, rhs ast.Expr, f *ast.File) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	root := rootIdent(idx.X)
	if root == nil {
		return
	}
	obj := identObj(p, root)
	if obj == nil || declaredWithin(obj, scope) {
		return
	}
	tv, ok := p.Info.Types[rhs]
	if !ok || !typeContainsRow(tv.Type) {
		return
	}
	if id, ok := ast.Unparen(idx.Index).(*ast.Ident); ok {
		if o := identObj(p, id); o != nil && o == info.part {
			return // own-partition slot: result installation, not a crossing
		}
	}
	if sanitizedOrigin(p, f, rhs) {
		return
	}
	r.Reportf(lhs.Pos(), "row-bearing value stored into captured %q under a non-own-partition index without DeepClone or the row codec; partitions would alias the same cell arrays", root.Name)
}

// sanitizedOrigin reports whether the expression visibly passed through a
// cloning or serializing call: it is such a call directly, or an identifier
// whose (single, lexically preceding) assignment in this file is one.
func sanitizedOrigin(p *Pkg, f *ast.File, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return isSanitizingCall(p, call)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := identObj(p, id)
	if obj == nil {
		return false
	}
	sanitized := false
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() > id.Pos() {
			return true
		}
		for i, lhs := range as.Lhs {
			l, ok := lhs.(*ast.Ident)
			if !ok || identObj(p, l) != obj {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isSanitizingCall(p, call) {
				sanitized = true
			} else {
				sanitized = false // a later rebind from elsewhere taints it again
			}
		}
		return true
	})
	return sanitized
}

// isSanitizingCall recognizes the calls that break cell-array aliasing:
// value.DeepClone and the row codec's decode entry points (a decoded row owns
// freshly allocated cells by construction).
func isSanitizingCall(p *Pkg, call *ast.CallExpr) bool {
	callee := calleeFunc(p, call)
	if callee == nil {
		return false
	}
	switch callee.Name() {
	case "DeepClone", "DecodeRow", "DecodeRows", "Clone":
		return isValuePkgFunc(callee, callee.Name()) ||
			(recvNamed(callee) != nil && callee.Pkg() != nil && pathHasSuffix(callee.Pkg().Path(), "internal/value"))
	}
	return false
}
