package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// NodeterminismAnalyzer flags sources of run-to-run nondeterminism in the
// simulated-cluster and executor paths, which must be seed-deterministic so
// EXPERIMENTS.md numbers reproduce: wall-clock reads (time.Now), the global
// math/rand generator, and map iteration whose order reaches output.
var NodeterminismAnalyzer = &Analyzer{
	Name: "nodeterminism",
	Doc:  "flags time.Now, global math/rand, and map-iteration-order-dependent output in deterministic simulation paths",
	Run:  runNodeterminism,
}

// nondetScope lists the package suffixes that must stay seed-deterministic.
// internal/spill is included because run files are replayed into query
// results: spill-file contents and ordering must be identical across runs.
// internal/opt is included because plan choice (join order, rewrite output,
// CSE column order) must be identical across runs for golden-plan tests and
// the rewritten-vs-baseline identity sweep to mean anything.
var nondetScope = []string{
	"internal/cluster",
	"internal/exec",
	"internal/bench",
	"internal/workload",
	"internal/spill",
	"internal/fault",
	"internal/storage",
	"internal/opt",
}

func runNodeterminism(pass *Pass) {
	p, r := pass.Pkg, pass.R
	if !pathHasSuffix(p.Path, nondetScope...) {
		return
	}
	for _, f := range p.Files {
		checkNondetCalls(p, r, f)
		checkMapRangeOutput(p, r, f)
	}
}

// checkNondetCalls flags time.Now and global math/rand generator calls.
func checkNondetCalls(p *Pkg, r *Reporter, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[sel.Sel]
		if !ok || obj.Pkg() == nil {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" {
				r.Reportf(call.Pos(), "time.Now in a deterministic simulation path; inject a clock or measure outside the simulation")
			}
		case "math/rand", "math/rand/v2":
			switch fn.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				// Constructing an explicitly seeded generator is the fix.
			default:
				r.Reportf(call.Pos(), "global math/rand.%s is process-seeded; thread an explicit seeded *rand.Rand instead", fn.Name())
			}
		}
		return true
	})
}

// checkMapRangeOutput flags range-over-map loops whose iteration order can
// reach output: loops that print/write directly from the body, or that
// append to an outer slice which is never sorted afterwards.
func checkMapRangeOutput(p *Pkg, r *Reporter, f *ast.File) {
	// Walk function by function so "sorted afterwards" can be checked
	// against the enclosing body.
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			// Nested function literals are visited by the outer walk with
			// their own body; do not double-scan them here.
			if lit, ok := n.(*ast.FuncLit); ok && n != nil && lit.Body != body {
				return false
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if writesOutput(p, rng.Body) {
				r.Reportf(rng.Pos(), "map iteration order reaches output directly; iterate sorted keys instead")
				return true
			}
			if target, ok := appendsToOuter(p, rng); ok && !sortedAfter(p, body, rng) {
				r.Reportf(rng.Pos(), "map iteration appends to %q in nondeterministic order and the result is never sorted", target)
			}
			return true
		})
		return true
	})
}

// writesOutput reports whether the block directly prints or writes to a
// string/byte builder.
func writesOutput(p *Pkg, block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[sel.Sel]
		if !ok {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			t := types.TypeString(recv.Type(), nil)
			if (t == "*strings.Builder" || t == "*bytes.Buffer") && len(fn.Name()) >= 5 && fn.Name()[:5] == "Write" {
				found = true
				return false
			}
			return true
		}
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			switch fn.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// appendsToOuter reports whether the range body appends to a slice variable
// declared outside the range statement, returning the variable name.
func appendsToOuter(p *Pkg, rng *ast.RangeStmt) (string, bool) {
	name, found := "", false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fid, ok := call.Fun.(*ast.Ident)
		if !ok || fid.Name != "append" {
			return true
		}
		lhs, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		target, ok := p.Info.Uses[lhs]
		if !ok {
			if def, okd := p.Info.Defs[lhs]; okd {
				target = def
			} else {
				return true
			}
		}
		// Declared outside the loop body?
		if target.Pos() < rng.Pos() || target.Pos() > rng.End() {
			name, found = lhs.Name, true
			return false
		}
		return true
	})
	return name, found
}

// sortedAfter reports whether a sort call (package sort, slices.Sort*, or a
// local sort* helper) appears lexically after the range statement inside the
// same function body.
func sortedAfter(p *Pkg, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if obj, ok := p.Info.Uses[fun.Sel]; ok && obj.Pkg() != nil {
				path := obj.Pkg().Path()
				found = path == "sort" || path == "slices" && strings.HasPrefix(fun.Sel.Name, "Sort")
			}
		case *ast.Ident:
			if len(fun.Name) >= 4 && (fun.Name[:4] == "sort" || fun.Name[:4] == "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}
