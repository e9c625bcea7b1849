package builtins

// EvalCtx carries per-query evaluation state into built-in functions. Today
// that is just the kernel-worker budget: when many queries execute
// concurrently against one process, the serving layer leases each query a
// slice of the machine's cores, and that lease must reach the parallel
// linalg kernels the builtins invoke. Expression evaluation itself stays
// pure — the context is read-only configuration, not mutable state. Every
// caller passes one; the zero value means "no explicit budget".
type EvalCtx struct {
	// KernelWorkers is the goroutine budget for parallel kernels invoked
	// while evaluating under this context. 0 means no explicit budget:
	// linalg then fans out up to GOMAXPROCS ways.
	KernelWorkers int
}
