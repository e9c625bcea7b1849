package main

import (
	"go/ast"
	"strings"
)

// GocheckAnalyzer confines raw goroutine creation in every package under
// internal/ to three sanctioned entry points. Everything else must go
// through them, because they are what carries the engine's guarantees:
// goroutine counts bounded by the configured parallelism (one per partition
// slot in the task runner, one per row band in ParallelMulMat's pool, the
// server's one per connection), every goroutine joined (the pool and the task
// runner wait for theirs before returning, and Shutdown waits for the
// sessions), and bounded retry, speculation and fault injection for cluster
// tasks. A stray `go` statement bypasses them: it is unbounded, unjoined, and
// invisible to the fault injector. Operators and kernels run on their
// partition task's goroutine. No runner recovers panics; a panic in any
// goroutine ends the process.
var GocheckAnalyzer = &Analyzer{
	Name: "gocheck",
	Doc:  "flags go statements in packages under internal/ outside the sanctioned entry points",
	Run:  runGocheck,
}

// goAllowlist maps the packages that own a goroutine runner to the functions
// allowed to spawn goroutines: the cluster's task runner, linalg's pool
// behind ParallelMulMat, and the server's accept loop (one session goroutine
// per connection; everything a session runs goes through the task runner).
// Every other package under internal/ may spawn none.
var goAllowlist = map[string][]string{
	"internal/linalg":  {"parallelRanges"},
	"internal/cluster": {"ParallelTasks"},
	"internal/serve":   {"Serve"},
}

func runGocheck(p *Pkg, r *Reporter) {
	if !strings.HasPrefix(p.Path, "internal/") && !strings.Contains(p.Path, "/internal/") {
		return
	}
	var allowed []string
	for suffix, fns := range goAllowlist {
		if pathHasSuffix(p.Path, suffix) {
			allowed = fns
			break
		}
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
