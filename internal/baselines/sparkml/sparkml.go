// Package sparkml simulates Spark V1.6 mllib.linalg's execution profile for
// the paper's three benchmark computations, reproducing the two mechanisms
// behind Spark's Figure 1-3 numbers:
//
//  1. The paper's Gram/regression code maps EVERY vector to a dense d×d
//     array and reduces with `(a, b).zipped.map(_+_)`, which allocates a
//     fresh d² array per combination step; partition-local reduction runs in
//     parallel but the final partials are merged SEQUENTIALLY at the driver.
//     At d = 1000 this allocation-heavy, driver-serialized reduce is what
//     pushes Spark to ~17 minutes where blocked engines take ~3.
//  2. The distance computation uses a distributed BlockMatrix multiply
//     (X · M · Xᵀ), which replicates blocks all-to-all through serialized
//     shuffles and materializes the full n×n result before the row-minimum
//     pass — the paper's worst Figure 3 column.
package sparkml

import (
	"fmt"
	"math"

	"relalg/internal/baselines"
	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// Engine is one simulated Spark mllib instance.
type Engine struct {
	cl *cluster.Cluster
	// BlockSize is the BlockMatrix block edge for the distance computation.
	BlockSize int
}

// New returns an engine over the cluster.
func New(cl *cluster.Cluster) *Engine {
	return &Engine{cl: cl, BlockSize: 1000}
}

// Name implements the benchmark platform interface.
func (e *Engine) Name() string { return "Spark mllib" }

// rdd scatters points round-robin, like parallelize on an RDD[Vector].
func (e *Engine) rdd(data [][]float64) [][]value.Row {
	rows := make([]value.Row, len(data))
	for i, v := range data {
		rows[i] = value.Row{value.Int(int64(i)), value.Vector(linalg.VectorOf(v...))}
	}
	return e.cl.ScatterRoundRobin(rows)
}

// zippedAdd reproduces `(a, b).zipped.map(_+_)`: it returns a FRESH slice
// per call, the functional-allocation cost of the paper's Scala code.
func zippedAdd(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Gram runs the paper's vector-based mllib code: map each point to its d×d
// outer product, reduce by element-wise add.
func (e *Engine) Gram(data [][]float64) (*linalg.Matrix, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("sparkml: empty input")
	}
	d := len(data[0])
	parts := e.rdd(data)
	partials := make([][]float64, e.cl.Partitions())
	err := e.cl.ParallelTasks("spark gram", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		var acc []float64
		for _, r := range parts[p] {
			x := r[1].Vec.Data
			// map: x => x.transpose.multiply(x) — a fresh d×d dense array
			// per input vector.
			outer := make([]float64, d*d)
			for i, xi := range x {
				row := outer[i*d : (i+1)*d]
				for j, xj := range x {
					row[j] = xi * xj
				}
			}
			// reduce step inside the partition, allocating per combine.
			if acc == nil {
				acc = outer
			} else {
				acc = zippedAdd(acc, outer)
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
	final, err := e.driverReduce(partials, d)
	if err != nil {
		return nil, err
	}
	return &linalg.Matrix{Rows: d, Cols: d, Data: final}, nil
}

// driverReduce serializes every partition's partial back to the driver and
// combines them one at a time on a single goroutine — Spark's reduce().
func (e *Engine) driverReduce(partials [][]float64, d int) ([]float64, error) {
	var acc []float64
	for p, part := range partials {
		if part == nil {
			continue
		}
		if p != 0 {
			v, err := e.cl.SendValue(value.Vector(&linalg.Vector{Data: part}))
			if err != nil {
				return nil, err
			}
			part = v.Vec.Data
		}
		if acc == nil {
			acc = part
			continue
		}
		acc = zippedAdd(acc, part)
	}
	if acc == nil {
		return nil, fmt.Errorf("sparkml: nothing to reduce")
	}
	if len(acc) != d*d && len(acc) != d {
		return nil, fmt.Errorf("sparkml: partial of length %d", len(acc))
	}
	return acc, nil
}

// Regression is the vector-based normal-equations job: map each point to
// (x xᵀ, x·y), reduce both, solve at the driver.
func (e *Engine) Regression(data [][]float64, y []float64) (*linalg.Vector, error) {
	n := len(data)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("sparkml: bad regression input (%d points, %d targets)", n, len(y))
	}
	d := len(data[0])
	G, err := e.Gram(data)
	if err != nil {
		return nil, err
	}
	parts := e.rdd(data)
	partials := make([][]float64, e.cl.Partitions())
	err = e.cl.ParallelTasks("spark xty", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		var acc []float64
		for _, r := range parts[p] {
			i := int(r[0].I)
			x := r[1].Vec.Data
			xy := make([]float64, d)
			for j, xj := range x {
				xy[j] = xj * y[i]
			}
			if acc == nil {
				acc = xy
			} else {
				acc = zippedAdd(acc, xy)
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
	v, err := e.driverReduce(partials, d)
	if err != nil {
		return nil, err
	}
	inv, err := G.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(&linalg.Vector{Data: v})
}

// Distance runs the BlockMatrix pipeline:
// dist = block_x.multiply(block_m).multiply(block_x.transpose), then per-row
// minima (excluding the diagonal) and the arg-max of those minima. Every
// block of X is replicated to every partition holding a matching block-row
// of the n×n product, and the product IS materialized.
func (e *Engine) Distance(data [][]float64, metric *linalg.Matrix) (int, float64, error) {
	n := len(data)
	if n == 0 {
		return 0, 0, fmt.Errorf("sparkml: empty input")
	}
	d := len(data[0])
	if metric.Rows != d || metric.Cols != d {
		return 0, 0, fmt.Errorf("sparkml: metric is %dx%d for %d-dimensional data", metric.Rows, metric.Cols, d)
	}
	bs := e.BlockSize
	nblocks := (n + bs - 1) / bs

	// Block rows of X, stored as (blockID, MATRIX) spread over the cluster.
	var xblocks []value.Row
	for b := 0; b < nblocks; b++ {
		end := min(n, (b+1)*bs)
		m, err := linalg.MatrixFromRows(data[b*bs : end])
		if err != nil {
			return 0, 0, err
		}
		xblocks = append(xblocks, value.Row{value.Int(int64(b)), value.Matrix(m)})
	}
	parts := e.cl.ScatterRoundRobin(xblocks)

	// Step 1: XM blocks (local: metric is a single block here).
	xm := make([][]value.Row, e.cl.Partitions())
	err := e.cl.ParallelTasks("spark xm", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		var rows []value.Row
		for _, r := range parts[p] {
			prod, err := r[1].Mat.MulMat(metric)
			if err != nil {
				return cluster.Commit{}, err
			}
			rows = append(rows, value.Row{r[0], value.Matrix(prod)})
		}
		return cluster.Commit{Install: func() error {
			xm[p] = rows
			return nil
		}}, nil
	})
	if err != nil {
		return 0, 0, err
	}

	// Step 2: multiply by Xᵀ — BlockMatrix replicates the right-hand blocks
	// to every partition (all-to-all broadcast through the shuffle path).
	xt, err := e.cl.Broadcast(cluster.TaskObserver{}, parts)
	if err != nil {
		return 0, 0, err
	}

	// Step 3: materialize the n×n product block-row by block-row, then the
	// row-min/arg-max pass of the paper's Scala code.
	bests := make([]baselines.Best, e.cl.Partitions())
	err = e.cl.ParallelTasks("spark distance", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		b := baselines.NoBest()
		for _, r := range xm[p] {
			rowBase := int(r[0].I) * bs
			h := r[1].Mat.Rows
			// Materialized block-row of the n×n distance matrix.
			blockRow := linalg.NewMatrix(h, n)
			for _, xr := range xt[p] {
				prod, err := r[1].Mat.MulMat(xr[1].Mat.Transpose())
				if err != nil {
					return cluster.Commit{}, err
				}
				if err := blockRow.SetSubMatrix(0, int(xr[0].I)*bs, prod); err != nil {
					return cluster.Commit{}, err
				}
			}
			for i := 0; i < h; i++ {
				minD := math.Inf(1)
				row := blockRow.Row(i)
				for j, v := range row {
					if rowBase+i == j {
						continue
					}
					if v < minD {
						minD = v
					}
				}
				if minD > b.Val {
					b = baselines.Best{Idx: rowBase + i, Val: minD}
				}
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
	return baselines.ArgMax(bests, "sparkml")
}
