// Package scidb simulates SciDB V14.8's execution profile for the paper's
// three benchmark computations. Data lives in fixed-size chunks of array
// rows (the paper used chunk size 1000); gemm runs chunk-local dense
// kernels with a tree of partial-sum reductions, and the distance query
// streams chunk pairs, filtering t1<>t2 and folding the per-row minimum on
// the fly instead of materializing the full n×n product — the strategy that
// makes SciDB the strongest distance performer in Figure 3.
package scidb

import (
	"fmt"
	"math"

	"relalg/internal/baselines"
	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// Engine is one simulated SciDB instance.
type Engine struct {
	cl *cluster.Cluster
	// ChunkSize is the number of array rows per chunk (paper: 1000).
	ChunkSize int
}

// New returns an engine over the cluster.
func New(cl *cluster.Cluster) *Engine {
	return &Engine{cl: cl, ChunkSize: 1000}
}

// Name implements the benchmark platform interface.
func (e *Engine) Name() string { return "SciDB" }

// chunks splits the data into row chunks encoded as (chunkID, MATRIX) rows
// spread across the cluster.
func (e *Engine) chunks(data [][]float64) ([][]value.Row, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("scidb: empty input")
	}
	cs := e.ChunkSize
	var rows []value.Row
	for start := 0; start < len(data); start += cs {
		end := min(len(data), start+cs)
		m, err := linalg.MatrixFromRows(data[start:end])
		if err != nil {
			return nil, err
		}
		rows = append(rows, value.Row{value.Int(int64(start / cs)), value.Matrix(m)})
	}
	return e.cl.ScatterRoundRobin(rows), nil
}

// Gram evaluates gemm(transpose(x), x, zeros): each chunk contributes
// Xc^T·Xc, reduced across partitions.
func (e *Engine) Gram(data [][]float64) (*linalg.Matrix, error) {
	parts, err := e.chunks(data)
	if err != nil {
		return nil, err
	}
	d := len(data[0])
	partials := make([]*linalg.Matrix, e.cl.Partitions())
	err = e.cl.ParallelTasks("scidb gram", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		acc := linalg.NewMatrix(d, d)
		for _, r := range parts[p] {
			c := r[1].Mat
			if err := c.Transpose().MulMatAddInto(acc, c); err != nil {
				return cluster.Commit{}, err
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
	return baselines.ReduceMatrices(e.cl, partials, "scidb")
}

// Regression solves the normal equations via two chunked gemms.
func (e *Engine) Regression(data [][]float64, y []float64) (*linalg.Vector, error) {
	if len(y) != len(data) {
		return nil, fmt.Errorf("scidb: %d targets for %d points", len(y), len(data))
	}
	parts, err := e.chunks(data)
	if err != nil {
		return nil, err
	}
	d := len(data[0])
	gparts := make([]*linalg.Matrix, e.cl.Partitions())
	vparts := make([]*linalg.Vector, e.cl.Partitions())
	cs := e.ChunkSize
	err = e.cl.ParallelTasks("scidb regression", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		gacc := linalg.NewMatrix(d, d)
		vacc := linalg.NewVector(d)
		for _, r := range parts[p] {
			c := r[1].Mat
			ct := c.Transpose()
			if err := ct.MulMatAddInto(gacc, c); err != nil {
				return cluster.Commit{}, err
			}
			base := int(r[0].I) * cs
			for i := 0; i < c.Rows; i++ {
				yi := y[base+i]
				row := c.Row(i)
				for j, x := range row {
					vacc.Data[j] += x * yi
				}
			}
		}
		return cluster.Commit{Install: func() error {
			gparts[p], vparts[p] = gacc, vacc
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	G, err := baselines.ReduceMatrices(e.cl, gparts, "scidb")
	if err != nil {
		return nil, err
	}
	v, err := baselines.SumVectors(vparts, d)
	if err != nil {
		return nil, err
	}
	inv, err := G.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(v)
}

// Distance runs the paper's AQL pipeline: mxt = gemm(m, transpose(x));
// all_distance = filter(gemm(x, mxt), t1<>t2); min per t1; argmax. The
// simulation streams chunk pairs (each partition receives a broadcast copy
// of mxt's chunks) and folds per-row minima without materializing n×n.
func (e *Engine) Distance(data [][]float64, metric *linalg.Matrix) (int, float64, error) {
	n := len(data)
	if n == 0 {
		return 0, 0, fmt.Errorf("scidb: empty input")
	}
	d := len(data[0])
	if metric.Rows != d || metric.Cols != d {
		return 0, 0, fmt.Errorf("scidb: metric is %dx%d for %d-dimensional data", metric.Rows, metric.Cols, d)
	}
	parts, err := e.chunks(data)
	if err != nil {
		return 0, 0, err
	}
	// mxt chunks: for each data chunk c, (m · c^T) is d×|c|; broadcast them.
	mxtLocal := make([][]value.Row, e.cl.Partitions())
	err = e.cl.ParallelTasks("scidb mxt", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		var rows []value.Row
		for _, r := range parts[p] {
			prod, err := metric.MulMat(r[1].Mat.Transpose())
			if err != nil {
				return cluster.Commit{}, err
			}
			rows = append(rows, value.Row{r[0], value.Matrix(prod)})
		}
		return cluster.Commit{Install: func() error {
			mxtLocal[p] = rows
			return nil
		}}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	mxt, err := e.cl.Broadcast(cluster.TaskObserver{}, mxtLocal)
	if err != nil {
		return 0, 0, err
	}
	cs := e.ChunkSize
	bests := make([]baselines.Best, e.cl.Partitions())
	err = e.cl.ParallelTasks("scidb distance", cluster.TaskObserver{}, func(p, _ int) (cluster.Commit, error) {
		b := baselines.NoBest()
		for _, r := range parts[p] {
			xc := r[1].Mat
			rowBase := int(r[0].I) * cs
			mins := make([]float64, xc.Rows)
			for i := range mins {
				mins[i] = math.Inf(1)
			}
			for _, mr := range mxt[p] {
				block, err := xc.MulMat(mr[1].Mat) // |c| × |c'| distances
				if err != nil {
					return cluster.Commit{}, err
				}
				colBase := int(mr[0].I) * cs
				for i := 0; i < block.Rows; i++ {
					row := block.Row(i)
					for j, v := range row {
						if rowBase+i == colBase+j {
							continue // filter t1 <> t2
						}
						if v < mins[i] {
							mins[i] = v
						}
					}
				}
			}
			for i, v := range mins {
				if v > b.Val {
					b = baselines.Best{Idx: rowBase + i, Val: v}
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
	return baselines.ArgMax(bests, "scidb")
}
