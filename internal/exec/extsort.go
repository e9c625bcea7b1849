package exec

import (
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// External merge sort: when the memory governor denies the sort buffer more
// bytes, the buffered batch is stable-sorted and spilled as one run; on
// read-back a k-way merge recombines the runs. Ties across runs break toward
// the earlier run, and the final in-memory batch merges last, so the output
// row order is exactly what sort.SliceStable over the whole input would have
// produced — external and in-memory sorts are bit-identical.

// externalSort sorts rows by keys under the query's memory budget, spilling
// sorted runs into scr, the owning task attempt's scratch, when the sort
// buffer exceeds its reservation. The input slice is never reordered, so
// every attempt sees the same rows.
func externalSort(ctx *Context, keys []plan.OrderKey, rows []value.Row, scr *spill.Scratch) ([]value.Row, error) {
	res := ctx.Spill.Governor().Reservation("sort")
	defer res.Release()

	var runs []*spill.Run
	var batch []value.Row
	for _, r := range rows {
		fp := rowFootprint(r)
		if !res.Grow(fp) {
			run, err := spillSortedRun(keys, batch, scr)
			if err != nil {
				return nil, err
			}
			runs = append(runs, run)
			batch = nil
			res.Reset()
			res.Force(fp) // the row that tripped the budget still joins the fresh batch
		}
		batch = append(batch, r)
	}
	if err := sortRowsStable(keys, batch); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return batch, nil // everything fit: plain in-memory sort
	}
	return mergeSortedRuns(keys, runs, batch, len(rows))
}

// spillSortedRun stable-sorts batch and writes it out as one run.
func spillSortedRun(keys []plan.OrderKey, batch []value.Row, scr *spill.Scratch) (*spill.Run, error) {
	if err := sortRowsStable(keys, batch); err != nil {
		return nil, err
	}
	w := scr.Writer("sort")
	for _, r := range batch {
		if err := w.Append(r); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// mergeSource is one input of the k-way merge: a spilled run or the final
// in-memory batch.
type mergeSource struct {
	reader *spill.Reader // nil for the in-memory batch
	batch  []value.Row
	i      int
	cur    value.Row
	ok     bool
}

func (s *mergeSource) advance() error {
	if s.reader == nil {
		if s.i < len(s.batch) {
			s.cur, s.ok = s.batch[s.i], true
			s.i++
		} else {
			s.cur, s.ok = nil, false
		}
		return nil
	}
	row, ok, err := s.reader.Next()
	if err != nil {
		return err
	}
	s.cur, s.ok = row, ok
	return nil
}

// mergeSortedRuns merges the sorted runs plus the final sorted in-memory
// batch. Sources are ordered by creation (run 0 holds the earliest input
// rows, the batch the latest), and ties select the lowest source index, which
// is what preserves the stable order of the original input.
func mergeSortedRuns(keys []plan.OrderKey, runs []*spill.Run, batch []value.Row, total int) ([]value.Row, error) {
	sources := make([]*mergeSource, 0, len(runs)+1)
	for _, run := range runs {
		sources = append(sources, &mergeSource{reader: run.Reader()})
	}
	sources = append(sources, &mergeSource{batch: batch})
	for _, s := range sources {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}

	out := make([]value.Row, 0, total)
	for {
		best := -1
		for i, s := range sources {
			if !s.ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c, err := compareRowsByKeys(keys, s.cur, sources[best].cur)
			if err != nil {
				return nil, err
			}
			if c < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, sources[best].cur)
		if err := sources[best].advance(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
