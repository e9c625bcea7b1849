package builtins

// EvalCtx carries per-query evaluation state into built-in functions. Today
// that is just the kernel-worker budget: when many queries execute
// concurrently against one process, the serving layer leases each query a
// slice of the machine's cores, and that lease must reach the parallel
// linalg kernels the builtins invoke. Expression evaluation itself stays
// pure — the context is read-only configuration, not mutable state.
//
// A nil *EvalCtx is valid everywhere and means "no explicit budget": kernels
// then fan out up to GOMAXPROCS ways.
type EvalCtx struct {
	// KernelWorkers is the goroutine budget for parallel kernels invoked
	// while evaluating under this context. 0 means no explicit budget.
	KernelWorkers int
}

// Workers returns the kernel-worker budget, nil-safe (nil → 0, which
// linalg.planWorkers resolves to GOMAXPROCS).
func (ec *EvalCtx) Workers() int {
	if ec == nil {
		return 0
	}
	return ec.KernelWorkers
}
