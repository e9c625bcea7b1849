// Clean fixtures: rows cross boundaries only through DeepClone or the row
// codec, or stay inside their own partition.
package exec

import (
	"relalg/internal/cluster"
	"relalg/internal/value"
)

// sendCloned deep-clones each row before the channel crossing.
func sendCloned(ch chan value.Row, rows []value.Row) {
	for _, r := range rows {
		ch <- r.DeepClone()
	}
}

// sendDecoded ships rows through the codec round-trip; decoded rows own
// freshly allocated cells by construction.
func sendDecoded(ch chan []value.Row, rows []value.Row) error {
	decoded, err := value.DecodeRows(value.EncodeRows(rows))
	if err != nil {
		return err
	}
	ch <- decoded
	return nil
}

// ownSlotInstall installs each partition's rows under its own index: the
// rows never leave their partition, so no copy is needed.
func ownSlotInstall(c *cluster.Cluster, parts [][]value.Row) ([][]value.Row, error) {
	out := make([][]value.Row, c.Partitions())
	err := c.ParallelTasks("install", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		rows := parts[dst]
		return cluster.Commit{Install: func() error {
			out[dst] = rows
			return nil
		}}, nil
	})
	return out, err
}

// replicateDecoded replicates into a foreign slot through the codec — the
// private-copy path a real networked broadcast would force.
func replicateDecoded(c *cluster.Cluster, parts [][]value.Row) ([][]value.Row, error) {
	p := c.Partitions()
	out := make([][]value.Row, p)
	err := c.ParallelTasks("mirror", cluster.TaskObserver{}, func(dst, attempt int) (cluster.Commit, error) {
		decoded, err := value.DecodeRows(value.EncodeRows(parts[dst]))
		if err != nil {
			return cluster.Commit{}, err
		}
		return cluster.Commit{Install: func() error {
			out[(dst+1)%p] = decoded
			return nil
		}}, nil
	})
	return out, err
}
