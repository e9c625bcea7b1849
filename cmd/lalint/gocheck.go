package main

import (
	"go/ast"
)

// GocheckAnalyzer confines raw goroutine creation in the kernel and cluster
// layers to the sanctioned pool/runner entry points. Everything else must go
// through those runners, because they are what carries the engine's
// guarantees: worker counts bounded by the configured parallelism, panics
// recovered into errors, retry/speculation bookkeeping, and deterministic
// result delivery. A stray `go` statement bypasses all four — it is unbounded,
// uncounted, and invisible to the fault injector.
var GocheckAnalyzer = &Analyzer{
	Name: "gocheck",
	Doc:  "flags go statements in internal/linalg and internal/cluster outside the sanctioned pool/runner entry points",
	Run:  runGocheck,
}

// goAllowlist maps the confined package suffixes to the functions that are
// allowed to spawn goroutines: the kernel worker pool, the cluster's task
// runner, and the server's accept loop (one session goroutine
// per connection; everything a session runs goes through those runners).
var goAllowlist = map[string][]string{
	"internal/linalg":  {"parallelRanges"},
	"internal/cluster": {"ParallelTasks"},
	"internal/serve":   {"Serve"},
}

func runGocheck(pass *Pass) {
	p, r := pass.Pkg, pass.R
	var allowed []string
	found := false
	for suffix, fns := range goAllowlist {
		if pathHasSuffix(p.Path, suffix) {
			allowed, found = fns, true
			break
		}
	}
	if !found {
		return
	}
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			name := enclosingFuncName(stack)
			for _, fn := range allowed {
				if name == fn {
					return true
				}
			}
			r.Reportf(g.Pos(), "raw go statement outside the sanctioned runner entry points; route the work through the pool/runner so it is bounded, recovered, and fault-injectable")
			return true
		})
	}
}
