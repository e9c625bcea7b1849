// Clean fixtures: writers are created inside the task with the live attempt,
// every handle reaches Finish/Abort/Close or visibly escapes to a new owner.
package exec

import (
	"relalg/internal/cluster"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// attemptKeyed creates its writer inside the task, keyed by the live attempt,
// and finishes or aborts it on every path.
func attemptKeyed(c *cluster.Cluster, m *spill.Manager, rows []value.Row) ([]*spill.Run, error) {
	runs := make([]*spill.Run, c.Partitions())
	err := c.ParallelTasks("spill", cluster.TaskObserver{}, func(part, attempt int) (cluster.Commit, error) {
		w, err := m.NewWriterAt("run", attempt)
		if err != nil {
			return cluster.Commit{}, err
		}
		for _, r := range rows {
			if err := w.Append(r); err != nil {
				_ = w.Abort()
				return cluster.Commit{}, err
			}
		}
		run, err := w.Finish()
		if err != nil {
			return cluster.Commit{}, err
		}
		return cluster.Commit{Install: func() error {
			runs[part] = run
			return nil
		}}, nil
	})
	return runs, err
}

// readBack drains a run, closing the reader on every path.
func readBack(run *spill.Run) (int64, error) {
	rd, err := run.Reader()
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = rd.Close()
	}()
	var n int64
	for {
		_, ok, err := rd.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// escapes hands the writer to a caller-owned slice: ownership (and the
// Finish/Abort obligation) moves with it.
func escapes(m *spill.Manager, attempt int, sink *[]*spill.Writer) error {
	w, err := m.NewWriterAt("deferred-run", attempt)
	if err != nil {
		return err
	}
	*sink = append(*sink, w)
	return nil
}
