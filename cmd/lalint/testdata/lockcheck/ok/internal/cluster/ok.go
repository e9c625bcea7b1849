// Package cluster is a lalint golden-file fixture: the same hazards as the
// bad package, fixed the sanctioned way or suppressed with a reasoned
// //lint:ignore directive. It must produce zero findings.
package cluster

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// ByPointer takes the lock-bearing struct by pointer (the clean fix).
func ByPointer(g *guarded) int {
	return g.n
}

// ByValueSuppressed documents why this particular copy is sanctioned.
//
//lint:ignore lockcheck fixture: the copy is of a never-locked zero value
func ByValueSuppressed(g guarded) int {
	return g.n
}

// ParallelTasks passes the loop variable as an argument and guards the
// shared accumulator with the mutex (the clean fix, no directive needed). It
// carries the sanctioned runner entry point's name: in a cluster-path
// package, goroutine creation is confined to the runner (see gocheck).
func ParallelTasks(items []int) int {
	var g guarded
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.mu.Lock()
			g.n += i
			g.mu.Unlock()
		}(i)
	}
	wg.Wait()
	return g.n
}
