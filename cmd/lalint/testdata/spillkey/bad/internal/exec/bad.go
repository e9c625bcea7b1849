// Deliberately broken fixtures: spill handles that are not attempt-keyed,
// leak, or cross attempt boundaries.
package exec

import (
	"relalg/internal/cluster"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// shorthandWriter uses the NewWriter shorthand, which hardcodes attempt 0.
func shorthandWriter(m *spill.Manager, rows []value.Row) error {
	w, err := m.NewWriter("sort-run")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			_ = w.Abort()
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	return run.Remove()
}

// constantAttempt keys the write-fault draw to a constant, so a retried task
// re-draws the same fault forever.
func constantAttempt(m *spill.Manager, rows []value.Row) error {
	w, err := m.NewWriterAt("agg-run", 0)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			_ = w.Abort()
			return err
		}
	}
	_, err = w.Finish()
	return err
}

// leakyWriter reaches neither Finish nor Abort: the run file lingers until
// Manager.Close.
func leakyWriter(m *spill.Manager, rows []value.Row, attempt int) error {
	w, err := m.NewWriterAt("join-run", attempt)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// leakyReader never closes its read handle.
func leakyReader(run *spill.Run) (int, error) {
	rd, err := run.Reader()
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		_, ok, err := rd.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// crossAttempt captures a writer created outside the task: a retried attempt
// resumes the failed attempt's half-written run instead of starting fresh.
func crossAttempt(c *cluster.Cluster, m *spill.Manager, rows []value.Row) error {
	startAttempt := 0
	w, err := m.NewWriterAt("shared-run", startAttempt)
	if err != nil {
		return err
	}
	err = c.ParallelTasks("spill", cluster.TaskObserver{}, func(part, attempt int) (cluster.Commit, error) {
		for _, r := range rows {
			if err := w.Append(r); err != nil {
				return cluster.Commit{}, err
			}
		}
		return cluster.Commit{}, nil
	})
	if err != nil {
		_ = w.Abort()
		return err
	}
	_, err = w.Finish()
	return err
}
