// Deliberately broken fixtures: value.Row data crossing partition and
// channel boundaries without DeepClone or the row codec.
package exec

import (
	"relalg/internal/cluster"
	"relalg/internal/value"
)

// sendAliased ships rows to another goroutine still aliasing the sender's
// cell arrays.
func sendAliased(ch chan []value.Row, rows []value.Row) {
	ch <- rows
}

// crossPartitionInstall replicates each partition's rows into a neighbour's
// slot without a private copy: both partitions end up sharing backing arrays.
func crossPartitionInstall(c *cluster.Cluster, parts [][]value.Row) ([][]value.Row, error) {
	p := c.Partitions()
	out := make([][]value.Row, p)
	err := c.ParallelTasks("replicate", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		rows := parts[dst]
		return cluster.Commit{Install: func() error {
			out[(dst+1)%p] = rows
			return nil
		}}, nil
	})
	return out, err
}

// crossPartitionCols installs one partition's gathered columns into a
// neighbour's slot: both partitions share the typed column arrays.
func crossPartitionCols(c *cluster.Cluster, parts [][]value.Col) ([][]value.Col, error) {
	p := c.Partitions()
	out := make([][]value.Col, p)
	err := c.ParallelTasks("scatter", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		cols := parts[dst]
		return cluster.Commit{Install: func() error {
			out[(dst+1)%p] = cols
			return nil
		}}, nil
	})
	return out, err
}
