// Clean fixtures: computes build private results and return their counts;
// Install closures install them.
package exec

import "relalg/internal/cluster"

// commitInstalls is the sanctioned shape: the compute reads its immutable
// inputs, builds a local result and returns its count; the Install closure
// (which runs exactly once) installs it.
func commitInstalls(c *cluster.Cluster, ns []int64) ([]int64, error) {
	out := make([]int64, c.Partitions())
	err := c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (cluster.Commit, error) {
		local := ns[part] * 2
		return cluster.Commit{Produced: local, Install: func() error {
			out[part] = local
			return nil
		}}, nil
	})
	return out, err
}

// budgetInCompute peeks at the budget from the compute, before producing,
// and installs through a named closure.
func budgetInCompute(c *cluster.Cluster, n int64) (int64, error) {
	var got int64
	err := c.RunTask("op", cluster.TaskObserver{}, func(_, attempt int) (cluster.Commit, error) {
		if err := c.CheckBudget(n); err != nil {
			return cluster.Commit{}, err
		}
		install := func() error {
			got = n
			return nil
		}
		return cluster.Commit{Produced: n, Install: install}, nil
	})
	return got, err
}

// mergeInInstall counts in the exchange compute and merges in its Install
// closure, which runs once, for the winning attempt.
func mergeInInstall(c *cluster.Cluster, in []map[int]int64) (map[int]int64, error) {
	merged := map[int]int64{}
	err := c.Exchange("op", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		return cluster.Commit{Shuffled: int64(len(in[dst])), Install: func() error {
			for k, v := range in[dst] {
				merged[k] += v
			}
			return nil
		}}, nil
	})
	return merged, err
}
