// Deliberately broken fixtures: task computes mutating state that outlives
// the attempt, and an Install closure peeking at the budget.
package exec

import "relalg/internal/cluster"

// capturedWrites installs results from the compute instead of the commit:
// a failed attempt's writes to out and total leak into its retry.
func capturedWrites(c *cluster.Cluster, ns []int64) (int64, error) {
	out := make([]int64, c.Partitions())
	var total int64
	err := c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (cluster.Commit, error) {
		out[part] = ns[part]
		total += ns[part]
		return cluster.Commit{}, nil
	})
	if err != nil {
		return 0, err
	}
	return total + out[0], nil
}

// mergeInMove merges into a captured map from an exchange compute: a retried
// attempt merges twice.
func mergeInMove(c *cluster.Cluster, in []map[int]int64) (map[int]int64, error) {
	merged := map[int]int64{}
	err := c.Exchange("op", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		for k, v := range in[dst] {
			merged[k] += v
		}
		return cluster.Commit{Shuffled: int64(len(in[dst]))}, nil
	})
	return merged, err
}

// budgetInInstall peeks at the budget from the Install closure, after the
// rows it would admit already exist.
func budgetInInstall(c *cluster.Cluster, ns []int64) ([]int64, error) {
	out := make([]int64, c.Partitions())
	err := c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (cluster.Commit, error) {
		n := ns[part]
		return cluster.Commit{Produced: n, Install: func() error {
			out[part] = n
			return c.CheckBudget(n)
		}}, nil
	})
	return out, err
}
