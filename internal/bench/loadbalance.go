package bench

import (
	"fmt"
	"strings"

	"relalg/internal/value"
)

// LoadBalanceDemo reproduces the paper's explanation for SimSQL's distance
// gap (§5): "there are only 10⁵ data points in all; when grouped into blocks
// of 1000 vectors, this results in only 100 matrices ... Since SimSQL uses a
// randomized, hash-based partitioning, it is easily possible for one core to
// receive four or five of the 100 matrices. We did observe that most cores
// would finish in a short time, while just a few, overloaded cores would be
// left to finish the computation."
//
// The demo hash-partitions `blocks` block ids over `workers` cores with the
// engine's actual partitioning hash and reports the resulting distribution:
// the makespan of a block-parallel stage is proportional to the most-loaded
// core, so max/mean is the slowdown versus perfect balance.
func LoadBalanceDemo(blocks, workers int) string {
	counts := make([]int, workers)
	for i := 0; i < blocks; i++ {
		h := value.HashRowKey(value.Row{value.Int(int64(i))}, []int{0})
		counts[h%uint64(workers)]++
	}
	maxLoad, busy := 0, 0
	for _, c := range counts {
		if c > maxLoad {
			maxLoad = c
		}
		if c > 0 {
			busy++
		}
	}
	mean := float64(blocks) / float64(workers)

	var b strings.Builder
	fmt.Fprintf(&b, "Load balance under randomized hash partitioning (paper §5 discussion)\n")
	fmt.Fprintf(&b, "%d blocks over %d cores: mean %.2f blocks/core, max %d, %d cores busy\n",
		blocks, workers, mean, maxLoad, busy)
	fmt.Fprintf(&b, "stage slowdown vs perfect balance: %.2fx\n\n", float64(maxLoad)/mean)
	hist := map[int]int{}
	for _, c := range counts {
		hist[c]++
	}
	maxBlocks := 0
	for c := range hist {
		if c > maxBlocks {
			maxBlocks = c
		}
	}
	for c := 0; c <= maxBlocks; c++ {
		if hist[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %2d block(s): %3d cores %s\n", c, hist[c], strings.Repeat("#", hist[c]))
	}
	// Some core must take ⌈blocks/workers⌉ blocks under any placement, so
	// that, not the mean, is what better load balancing can reach.
	best := (blocks + workers - 1) / workers
	b.WriteString("\nWith the paper's 100 blocks on 80 cores the same effect strands a few\n")
	b.WriteString("cores with 4-5 matrices each. Better load balancing (the paper's noted\n")
	fmt.Fprintf(&b, "future work) can at best reach a max of %d blocks/core, a %.2fx stage\n",
		best, float64(best)/mean)
	fmt.Fprintf(&b, "slowdown; this hash placement is %.2fx that best case.\n", float64(maxLoad)/float64(best))
	return b.String()
}
