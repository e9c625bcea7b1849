package main

import (
	"go/ast"
)

// GocheckAnalyzer confines raw goroutine creation in the kernel, cluster and
// server layers to the sanctioned entry points. Everything else must go
// through them, because they are what carries the engine's guarantees:
// goroutine counts bounded by the configured parallelism (one per kernel chunk
// or partition; the server's one per connection), every goroutine joined (the
// kernel pool and the task runner wait for theirs before returning, and
// Shutdown waits for the sessions), and bounded retry, speculation and fault
// injection for cluster tasks. A stray `go` statement bypasses them: it is
// unbounded, unjoined, and invisible to the fault injector. No runner recovers
// panics; a panic in any goroutine ends the process.
var GocheckAnalyzer = &Analyzer{
	Name: "gocheck",
	Doc:  "flags go statements in internal/linalg, internal/cluster and internal/serve outside the sanctioned entry points",
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

func runGocheck(p *Pkg, r *Reporter) {
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
			r.Reportf(g.Pos(), "raw go statement outside the sanctioned runner entry points; route the work through the pool/runner so it is bounded and joined (and, in the cluster, fault-injectable)")
			return true
		})
	}
}
