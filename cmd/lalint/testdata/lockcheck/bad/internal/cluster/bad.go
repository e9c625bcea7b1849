// Package cluster is a lalint golden-file fixture: every construct below
// must be flagged by the lockcheck analyzer.
package cluster

import "sync"

// Launch writes a captured shared variable in a goroutine closure without a
// lock.
func Launch(items []int) int {
	var total int
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += i
		}()
	}
	wg.Wait()
	return total
}
