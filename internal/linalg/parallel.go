package linalg

import "fmt"

// ParallelMulMat computes m · n splitting the rows of m across workers
// goroutines. Each worker runs the tiled kernel over its own block of output
// rows, so the result is identical to the serial product for every worker
// count; workers <= 0 means GOMAXPROCS, and small products run serially (see
// pool.go). The engine does not call it: each kernel runs on its partition
// task's goroutine, and the cluster's partition slots are the parallelism. It
// stays for the benchmark's matmul scaling probe.
func ParallelMulMat(m, n *Matrix, workers int) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("%w: matrix_multiply %dx%d by %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := NewMatrix(m.Rows, n.Cols)
	w := planWorkers(workers, m.Rows, m.Rows*m.Cols*n.Cols)
	parallelRanges(m.Rows, w, func(lo, hi int) {
		m.mulMatRowsInto(out, n, lo, hi)
	})
	return out, nil
}
