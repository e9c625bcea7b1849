package linalg

import (
	"runtime"
	"sync"
)

// parallelMinWork is the number of scalar operations (multiply-adds for
// products, element visits for maps and reductions) below which every kernel
// runs serially: goroutine fan-out costs on the order of microseconds, which
// only amortizes once a kernel has at least ~10^5 operations to split. This
// single threshold replaces the per-kernel ad-hoc cutoffs.
const parallelMinWork = 1 << 18

// reduceChunk is the fixed partial-sum granularity for parallel reductions.
// Partials are always formed per chunk and combined in ascending chunk
// order, so a reduction returns the identical float64 for every worker
// count (including 1) — worker count is a performance knob, never a source
// of numeric nondeterminism.
const reduceChunk = 1 << 15

// planWorkers resolves a requested worker count: workers <= 0 means
// GOMAXPROCS, the count is clamped to GOMAXPROCS (a CPU-bound kernel never
// gains from more goroutines than schedulable threads — it only pays
// scheduling and cache-handoff overhead) and to the number of splittable
// units, and kernels under the serial threshold get 1. The engine passes each
// query's budget (exec.Context.KernelWorkers) so that per-tuple kernel
// parallelism composes with partition parallelism instead of oversubscribing
// the machine.
func planWorkers(workers, units, work int) int {
	if mp := runtime.GOMAXPROCS(0); workers <= 0 || workers > mp {
		workers = mp
	}
	if workers > units {
		workers = units
	}
	if workers <= 1 || work < parallelMinWork {
		return 1
	}
	return workers
}

// parallelRanges splits [0, n) into one contiguous chunk per worker and runs
// fn on each chunk concurrently. workers <= 1 runs fn(0, n) inline.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
