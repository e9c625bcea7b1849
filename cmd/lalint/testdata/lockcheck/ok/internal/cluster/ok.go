// Package cluster is a lalint golden-file fixture: the same hazard as the
// bad package, fixed the sanctioned way. It must produce zero findings.
package cluster

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// ParallelTasks guards the shared accumulator with the mutex (the clean fix,
// no directive needed). It carries the sanctioned runner entry point's name:
// in a cluster-path package, goroutine creation is confined to the runner
// (see gocheck).
func ParallelTasks(items []int) int {
	var g guarded
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.mu.Lock()
			g.n += i
			g.mu.Unlock()
		}()
	}
	wg.Wait()
	return g.n
}
