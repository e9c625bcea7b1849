// Deliberately broken fixture: an operator package fans its work out with a
// raw go statement instead of running on its partition task's goroutine.
package exec

import "sync"

// projectAll evaluates each window of a partition on a goroutine of its own:
// unbounded by the partition slots, invisible to the fault injector.
func projectAll(windows [][]float64, eval func([]float64)) {
	var wg sync.WaitGroup
	for _, w := range windows {
		wg.Add(1)
		go func(w []float64) {
			defer wg.Done()
			eval(w)
		}(w)
	}
	wg.Wait()
}
