// Deliberately broken fixtures: speculable computes mutating state that
// outlives the attempt.
package exec

import "relalg/internal/cluster"

// statsInCompute bumps a shared counter from a speculable compute; a
// speculated duplicate attempt double-counts.
func statsInCompute(c *cluster.Cluster, ns []int64) error {
	return c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (func() error, error) {
		c.Stats().TuplesShuffled.Add(ns[part])
		return func() error { return nil }, nil
	})
}

// bumpSpills is the helper helperInCompute reaches the stats through.
func bumpSpills(c *cluster.Cluster) {
	c.Stats().SpillEvents.Add(1)
}

// helperInCompute mutates stats through a same-package helper; the effect
// facts must see through the call.
func helperInCompute(c *cluster.Cluster) error {
	return c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (func() error, error) {
		bumpSpills(c)
		return func() error { return nil }, nil
	})
}

// capturedWrites installs results from the compute instead of the commit:
// concurrent attempts for the same partition race on out and total.
func capturedWrites(c *cluster.Cluster, ns []int64) (int64, error) {
	out := make([]int64, c.Partitions())
	var total int64
	err := c.ParallelTasks("op", cluster.TaskObserver{}, func(part, attempt int) (func() error, error) {
		out[part] = ns[part]
		total += ns[part]
		return func() error { return nil }, nil
	})
	if err != nil {
		return 0, err
	}
	return total + out[0], nil
}

// mergeInMove merges into a captured map from an exchange move: a retried or
// speculated move merges twice.
func mergeInMove(c *cluster.Cluster, in []map[int]int64) (map[int]int64, error) {
	merged := map[int]int64{}
	err := c.Exchange("op", cluster.TaskObserver{}, func(dst int) (func() error, int64, int64, error) {
		for k, v := range in[dst] {
			merged[k] += v
		}
		return func() error { return nil }, int64(len(in[dst])), 0, nil
	})
	return merged, err
}
