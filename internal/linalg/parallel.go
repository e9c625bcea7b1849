package linalg

import "fmt"

// This file holds the parallel entry points for the heavy kernels. They all
// share the policy in pool.go: workers <= 0 means GOMAXPROCS, small inputs
// run serially, and every kernel returns a
// result that is bit-for-bit independent of the worker count — splitting
// never reorders the per-element accumulation (products split output rows or
// columns; reductions combine fixed-size chunk partials in ascending order).

// ParallelMulMat computes m · n splitting the rows of m across workers
// goroutines. Each worker runs the tiled kernel over its own block of output
// rows, so the result is identical to the serial product for every worker
// count.
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

// ParallelTranspose computes mᵀ splitting the rows of m across workers.
// Workers write disjoint columns of the output, so no synchronization beyond
// the final join is needed.
func ParallelTranspose(m *Matrix, workers int) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	w := planWorkers(workers, m.Rows, m.Rows*m.Cols)
	parallelRanges(m.Rows, w, func(lo, hi int) {
		m.transposeRowsInto(out, lo, hi)
	})
	return out
}

// ParallelMulVec computes m · v splitting the rows of m across workers. Each
// output entry is one row's dot product, accumulated in ascending column
// order by exactly one worker — identical to the serial kernel.
func ParallelMulVec(m *Matrix, v *Vector, workers int) (*Vector, error) {
	if m.Cols != v.Len() {
		return nil, fmt.Errorf("%w: matrix_vector_multiply %dx%d by vector of length %d", ErrShape, m.Rows, m.Cols, v.Len())
	}
	out := NewVector(m.Rows)
	w := planWorkers(workers, m.Rows, m.Rows*m.Cols)
	parallelRanges(m.Rows, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			var s float64
			for j, a := range row {
				s += a * v.Data[j]
			}
			out.Data[i] = s
		}
	})
	return out, nil
}

// ParallelVecMul computes vᵀ · m splitting the columns of m across workers:
// rows cannot be split without reassociating the per-column accumulation, so
// each worker instead owns a column band and walks every row of m in
// ascending order within it — the same per-element order as the serial
// kernel, streamed row-wise for cache friendliness.
func ParallelVecMul(m *Matrix, v *Vector, workers int) (*Vector, error) {
	if m.Rows != v.Len() {
		return nil, fmt.Errorf("%w: vector_matrix_multiply vector of length %d by %dx%d", ErrShape, v.Len(), m.Rows, m.Cols)
	}
	out := NewVector(m.Cols)
	w := planWorkers(workers, m.Cols, m.Rows*m.Cols)
	parallelRanges(m.Cols, w, func(c0, c1 int) {
		for i, a := range v.Data {
			if a == 0 {
				continue
			}
			row := m.Data[i*m.Cols+c0 : i*m.Cols+c1]
			dst := out.Data[c0:c1]
			for j, b := range row {
				dst[j] += a * b
			}
		}
	})
	return out, nil
}

// ParallelAdd returns m + n element-wise, splitting the backing slice.
func ParallelAdd(m, n *Matrix, workers int) (*Matrix, error) {
	return parallelBinary(m, n, workers, "add", func(dst, a, b []float64) {
		for i, x := range a {
			dst[i] = x + b[i]
		}
	})
}

// ParallelSub returns m - n element-wise, splitting the backing slice.
func ParallelSub(m, n *Matrix, workers int) (*Matrix, error) {
	return parallelBinary(m, n, workers, "subtract", func(dst, a, b []float64) {
		for i, x := range a {
			dst[i] = x - b[i]
		}
	})
}

// ParallelHadamard returns m ⊙ n element-wise, splitting the backing slice.
func ParallelHadamard(m, n *Matrix, workers int) (*Matrix, error) {
	return parallelBinary(m, n, workers, "multiply", func(dst, a, b []float64) {
		for i, x := range a {
			dst[i] = x * b[i]
		}
	})
}

// ParallelDiv returns m / n element-wise, splitting the backing slice.
func ParallelDiv(m, n *Matrix, workers int) (*Matrix, error) {
	return parallelBinary(m, n, workers, "divide", func(dst, a, b []float64) {
		for i, x := range a {
			dst[i] = x / b[i]
		}
	})
}

// parallelBinary applies a vectorizable binary op over same-shaped matrices,
// splitting the flat data across workers. Each element is written by exactly
// one worker, so the result never depends on the worker count.
func parallelBinary(m, n *Matrix, workers int, op string, f func(dst, a, b []float64)) (*Matrix, error) {
	if err := sameShape(m, n, op); err != nil {
		return nil, err
	}
	out := NewMatrix(m.Rows, m.Cols)
	w := planWorkers(workers, len(m.Data), len(m.Data))
	parallelRanges(len(m.Data), w, func(lo, hi int) {
		f(out.Data[lo:hi], m.Data[lo:hi], n.Data[lo:hi])
	})
	return out, nil
}

// ParallelSum returns the sum of all entries. The data is always reduced as
// fixed-size chunk partials (reduceChunk) combined in ascending chunk order,
// so the returned float64 is identical for every worker count, including the
// serial path. It can differ from the plain left-to-right Sum by ordinary
// rounding (the chunk tree is a different but fixed association).
func ParallelSum(m *Matrix, workers int) float64 {
	return chunkedReduce(m.Data, workers, 0, func(partial float64, chunk []float64) float64 {
		for _, x := range chunk {
			partial += x
		}
		return partial
	}, func(a, b float64) float64 { return a + b })
}

// chunkedReduce reduces data to a scalar: the slice is cut into fixed
// reduceChunk-sized pieces, each piece folds serially from identity, and the
// per-chunk partials combine in ascending chunk order. Workers claim
// contiguous chunk ranges, so the partial list — and therefore the result —
// is the same for every worker count.
func chunkedReduce(data []float64, workers int, identity float64, fold func(float64, []float64) float64, combine func(float64, float64) float64) float64 {
	nchunks := (len(data) + reduceChunk - 1) / reduceChunk
	if nchunks <= 1 {
		return fold(identity, data)
	}
	partials := make([]float64, nchunks)
	w := planWorkers(workers, nchunks, len(data))
	parallelRanges(nchunks, w, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			end := min((c+1)*reduceChunk, len(data))
			partials[c] = fold(identity, data[c*reduceChunk:end])
		}
	})
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combine(acc, p)
	}
	return acc
}
