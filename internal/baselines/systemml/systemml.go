// Package systemml simulates SystemML V0.9's execution profile for the
// paper's three benchmark computations. Physically, data is always blocked
// into square-ish matrix blocks distributed over the shared cluster
// substrate; operations are block-replication joins plus block-local dense
// kernels, with partial-result reduction. A local mode runs tiny inputs on
// one core without touching the cluster, matching the paper's starred
// 10-dimensional entries.
package systemml

import (
	"fmt"
	"math"

	"relalg/internal/baselines"
	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// Engine is one simulated SystemML instance.
type Engine struct {
	cl *cluster.Cluster
	// BlockSize is the square block edge (SystemML's default is 1000).
	BlockSize int
	// LocalThreshold is the number of matrix cells under which the engine
	// runs in local mode.
	LocalThreshold int
}

// New returns an engine over the cluster.
func New(cl *cluster.Cluster) *Engine {
	return &Engine{cl: cl, BlockSize: 1000, LocalThreshold: 200_000}
}

// Name implements the benchmark platform interface.
func (e *Engine) Name() string { return "SystemML" }

// blocked splits dense row-major data into a grid of BlockSize×BlockSize
// blocks encoded as rows (bi, bj, MATRIX) and spread over the cluster.
func (e *Engine) blocked(data [][]float64) ([][]value.Row, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("systemml: empty input")
	}
	d := len(data[0])
	bs := e.BlockSize
	nbi := (n + bs - 1) / bs
	nbj := (d + bs - 1) / bs
	var rows []value.Row
	for bi := 0; bi < nbi; bi++ {
		for bj := 0; bj < nbj; bj++ {
			r0, r1 := bi*bs, min(n, (bi+1)*bs)
			c0, c1 := bj*bs, min(d, (bj+1)*bs)
			m := linalg.NewMatrix(r1-r0, c1-c0)
			for r := r0; r < r1; r++ {
				copy(m.Row(r-r0), data[r][c0:c1])
			}
			rows = append(rows, value.Row{value.Int(int64(bi)), value.Int(int64(bj)), value.Matrix(m)})
		}
	}
	return e.cl.ScatterRoundRobin(rows), nil
}

func (e *Engine) local(n, d int) bool { return n*d <= e.LocalThreshold }

// Gram computes t(X) %*% X.
func (e *Engine) Gram(data [][]float64) (*linalg.Matrix, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("systemml: empty input")
	}
	d := len(data[0])
	if e.local(n, d) {
		X, err := linalg.MatrixFromRows(data)
		if err != nil {
			return nil, err
		}
		return X.Transpose().MulMat(X)
	}
	parts, err := e.blocked(data)
	if err != nil {
		return nil, err
	}
	// t(X) %*% X = sum over row-block i of Xi^T applied blockwise:
	// contribution of block (i, a) with block (i, b) is Xia^T · Xib.
	// Co-locate blocks by row-block index, then pair within partitions.
	shuffled, err := e.cl.Shuffle(parts, []int{0})
	if err != nil {
		return nil, err
	}
	partials := make([]*linalg.Matrix, e.cl.Partitions())
	err = e.cl.ParallelTasks("systemml gram", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		acc := linalg.NewMatrix(d, d)
		// Row blocks in order of first arrival, so every run (and every
		// attempt) sums the tiles in the same order.
		var order []int64
		byRow := map[int64][]value.Row{}
		for _, r := range shuffled[p] {
			if _, ok := byRow[r[0].I]; !ok {
				order = append(order, r[0].I)
			}
			byRow[r[0].I] = append(byRow[r[0].I], r)
		}
		bs := e.BlockSize
		for _, bi := range order {
			blocks := byRow[bi]
			for _, a := range blocks {
				at := a[2].Mat.Transpose()
				for _, b := range blocks {
					prod, err := at.MulMat(b[2].Mat)
					if err != nil {
						return cluster.Commit{}, err
					}
					// Accumulate into the (a.bj, b.bj) tile of the result.
					r0 := int(a[1].I) * bs
					c0 := int(b[1].I) * bs
					for r := 0; r < prod.Rows; r++ {
						row := acc.Row(r0 + r)
						for c := 0; c < prod.Cols; c++ {
							row[c0+c] += prod.At(r, c)
						}
					}
				}
			}
		}
		return cluster.Commit{Install: func() error {
			partials[p] = acc
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return baselines.ReduceMatrices(e.cl, partials, "systemml")
}

// Regression solves beta = inverse(t(X)%*%X) %*% (t(X)%*%y).
func (e *Engine) Regression(data [][]float64, y []float64) (*linalg.Vector, error) {
	n := len(data)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("systemml: bad regression input (%d points, %d targets)", n, len(y))
	}
	G, err := e.Gram(data)
	if err != nil {
		return nil, err
	}
	d := len(data[0])
	// t(X) %*% y distributed: per partition over row ranges.
	parts := e.cl.ScatterRoundRobin(indexRows(n))
	partials := make([]*linalg.Vector, e.cl.Partitions())
	err = e.cl.ParallelTasks("systemml xty", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		acc := linalg.NewVector(d)
		for _, r := range parts[p] {
			i := int(r[0].I)
			for j, x := range data[i] {
				acc.Data[j] += x * y[i]
			}
		}
		return cluster.Commit{Install: func() error {
			partials[p] = acc
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	v, err := baselines.SumVectors(partials, d)
	if err != nil {
		return nil, err
	}
	inv, err := G.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(v)
}

// Distance runs the paper's DML program:
//
//	all_dist = X %*% m %*% X_t
//	all_dist = all_dist + diag(diag_inf)
//	min_dist = rowMins(all_dist)
//	result   = rowIndexMax(t(min_dist))
//
// It returns the index of the point whose minimum metric distance to any
// other point is largest, plus that distance.
func (e *Engine) Distance(data [][]float64, metric *linalg.Matrix) (int, float64, error) {
	n := len(data)
	if n == 0 {
		return 0, 0, fmt.Errorf("systemml: empty input")
	}
	d := len(data[0])
	if metric.Rows != d || metric.Cols != d {
		return 0, 0, fmt.Errorf("systemml: metric is %dx%d for %d-dimensional data", metric.Rows, metric.Cols, d)
	}
	X, err := linalg.MatrixFromRows(data)
	if err != nil {
		return 0, 0, err
	}
	if e.local(n, d) {
		XM, err := X.MulMat(metric)
		if err != nil {
			return 0, 0, err
		}
		all, err := XM.MulMat(X.Transpose())
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < n; i++ {
			all.Set(i, i, math.Inf(1))
		}
		mins := all.RowMins()
		idx := mins.ArgMax()
		return idx, mins.At(idx), nil
	}
	// Distributed: XM = X %*% m computed per row range; then the n×n
	// product XM %*% t(X) is formed block-row by block-row — each partition
	// needs every row of X, which is the replication cost SystemML pays.
	parts := e.cl.ScatterRoundRobin(indexRows(n))
	// Broadcast X to every partition (replication charge).
	xRows := make([]value.Row, n)
	for i := range data {
		xRows[i] = value.Row{value.Int(int64(i)), value.Vector(linalg.VectorOf(data[i]...))}
	}
	bcast, err := e.cl.Broadcast(cluster.TaskObserver{}, e.cl.ScatterRoundRobin(xRows))
	if err != nil {
		return 0, 0, err
	}
	bests := make([]baselines.Best, e.cl.Partitions())
	err = e.cl.ParallelTasks("systemml distance", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		b := baselines.NoBest()
		// Rebuild the broadcast copy of X on this partition.
		local := make([][]float64, n)
		for _, r := range bcast[p] {
			local[r[0].I] = r[1].Vec.Data
		}
		for _, r := range parts[p] {
			i := int(r[0].I)
			// row_i of XM = x_i^T m
			xim, err := metric.VecMul(linalg.VectorOf(data[i]...))
			if err != nil {
				return cluster.Commit{}, err
			}
			minD := math.Inf(1)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				var dist float64
				for k, x := range xim.Data {
					dist += x * local[j][k]
				}
				if dist < minD {
					minD = dist
				}
			}
			if minD > b.Val {
				b = baselines.Best{Idx: i, Val: minD}
			}
		}
		return cluster.Commit{Install: func() error {
			bests[p] = b
			return nil
		}}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return baselines.ArgMax(bests, "systemml")
}

func indexRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i))}
	}
	return rows
}
