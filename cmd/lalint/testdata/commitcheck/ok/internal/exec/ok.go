// Clean fixtures: computes build private results; commits install them and
// touch the stats; retry-only runners use the per-partition-slot idiom.
package exec

import "relalg/internal/cluster"

// commitInstalls is the sanctioned shape: the compute reads its immutable
// inputs and builds a local result, the commit (which runs exactly once)
// installs it and updates the counters.
func commitInstalls(c *cluster.Cluster, ns []int64) ([]int64, error) {
	out := make([]int64, c.Partitions())
	err := c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (func() error, error) {
		local := ns[part] * 2
		return func() error {
			out[part] = local
			c.Stats().TuplesShuffled.Add(local)
			return nil
		}, nil
	})
	return out, err
}

// idempotentSlotWrite is the retry-only runner idiom: Parallel closures are
// documented idempotent, and a per-partition slot write is idempotent.
func idempotentSlotWrite(c *cluster.Cluster, ns []int64) ([]int64, error) {
	out := make([]int64, c.Partitions())
	err := c.Parallel(func(part int) error {
		out[part] = ns[part]
		return nil
	})
	return out, err
}

// mergeInInstall counts in the exchange move and merges in its install, which
// runs once, for the winning attempt.
func mergeInInstall(c *cluster.Cluster, in []map[int]int64) (map[int]int64, error) {
	merged := map[int]int64{}
	err := c.Exchange("op", cluster.TaskObserver{}, func(dst int) (func() error, int64, int64, error) {
		return func() error {
			for k, v := range in[dst] {
				merged[k] += v
			}
			return nil
		}, int64(len(in[dst])), 0, nil
	})
	return merged, err
}
