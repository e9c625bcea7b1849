// Package baselines_test cross-checks the three simulated comparator
// platforms against a direct linalg reference on identical inputs — the
// correctness gate for every engine in the benchmark harness.
package baselines_test

import (
	"math"
	"testing"
	"time"

	"relalg/internal/baselines/scidb"
	"relalg/internal/baselines/sparkml"
	"relalg/internal/baselines/systemml"
	"relalg/internal/cluster"
	"relalg/internal/fault"
	"relalg/internal/linalg"
	"relalg/internal/workload"
)

// platform is the common surface all baselines expose.
type platform interface {
	Name() string
	Gram(data [][]float64) (*linalg.Matrix, error)
	Regression(data [][]float64, y []float64) (*linalg.Vector, error)
	Distance(data [][]float64, metric *linalg.Matrix) (int, float64, error)
}

func newCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true})
}

func platforms() []platform {
	return []platform{
		systemml.New(newCluster()),
		scidb.New(newCluster()),
		sparkml.New(newCluster()),
	}
}

// smallPlatforms forces the distributed paths even on tiny data, all three
// on cl.
func smallPlatforms(cl *cluster.Cluster) []platform {
	sm := systemml.New(cl)
	sm.BlockSize = 8
	sm.LocalThreshold = 1 // never local
	sc := scidb.New(cl)
	sc.ChunkSize = 8
	sp := sparkml.New(cl)
	sp.BlockSize = 8
	return []platform{sm, sc, sp}
}

func refGram(t *testing.T, data [][]float64) *linalg.Matrix {
	t.Helper()
	X, err := linalg.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	G, err := X.Transpose().MulMat(X)
	if err != nil {
		t.Fatal(err)
	}
	return G
}

func refDistance(t *testing.T, data [][]float64, metric *linalg.Matrix) (int, float64) {
	t.Helper()
	n := len(data)
	bestIdx, bestVal := -1, math.Inf(-1)
	for i := 0; i < n; i++ {
		xi := linalg.VectorOf(data[i]...)
		xim, err := metric.VecMul(xi)
		if err != nil {
			t.Fatal(err)
		}
		minD := math.Inf(1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d, err := xim.Dot(linalg.VectorOf(data[j]...))
			if err != nil {
				t.Fatal(err)
			}
			if d < minD {
				minD = d
			}
		}
		if minD > bestVal {
			bestIdx, bestVal = i, minD
		}
	}
	return bestIdx, bestVal
}

func TestGramAgreesAcrossPlatforms(t *testing.T) {
	data := workload.DenseVectors(42, 60, 7)
	want := refGram(t, data)
	for _, pl := range append(platforms(), smallPlatforms(newCluster())...) {
		got, err := pl.Gram(data)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("%s: gram disagrees with reference", pl.Name())
		}
	}
}

func TestRegressionRecoversBeta(t *testing.T) {
	data := workload.DenseVectors(7, 80, 5)
	beta := workload.Beta(8, 5)
	yRows := workload.RegressionTargets(9, data, beta, 0)
	y := make([]float64, len(yRows))
	for i, r := range yRows {
		y[i] = r[1].D
	}
	want := linalg.VectorOf(beta...)
	for _, pl := range append(platforms(), smallPlatforms(newCluster())...) {
		got, err := pl.Regression(data, y)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if !got.EqualApprox(want, 1e-6) {
			t.Fatalf("%s: beta = %v, want %v", pl.Name(), got, want)
		}
	}
}

func TestDistanceAgreesAcrossPlatforms(t *testing.T) {
	data := workload.DenseVectors(5, 30, 4)
	metric := workload.MetricMatrix(6, 4)
	wantIdx, wantVal := refDistance(t, data, metric)
	for _, pl := range append(platforms(), smallPlatforms(newCluster())...) {
		idx, val, err := pl.Distance(data, metric)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if idx != wantIdx || math.Abs(val-wantVal) > 1e-9 {
			t.Fatalf("%s: distance = (%d, %g), want (%d, %g)", pl.Name(), idx, val, wantIdx, wantVal)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	metric := workload.MetricMatrix(1, 3)
	for _, pl := range platforms() {
		if _, err := pl.Gram(nil); err == nil {
			t.Errorf("%s: empty gram accepted", pl.Name())
		}
		if _, err := pl.Regression(workload.DenseVectors(1, 4, 2), []float64{1}); err == nil {
			t.Errorf("%s: mismatched regression accepted", pl.Name())
		}
		if _, _, err := pl.Distance(workload.DenseVectors(1, 4, 2), metric); err == nil {
			t.Errorf("%s: wrong metric shape accepted", pl.Name())
		}
		if _, _, err := pl.Distance(nil, metric); err == nil {
			t.Errorf("%s: empty distance accepted", pl.Name())
		}
	}
}

func TestNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, pl := range platforms() {
		if seen[pl.Name()] {
			t.Fatalf("duplicate platform name %q", pl.Name())
		}
		seen[pl.Name()] = true
	}
}

func TestSystemMLLocalModeThreshold(t *testing.T) {
	cl := newCluster()
	e := systemml.New(cl)
	data := workload.DenseVectors(3, 20, 3) // 60 cells << threshold: local
	if _, err := e.Gram(data); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Snapshot().ShuffleRounds != 0 {
		t.Fatal("local mode should not shuffle")
	}
	e.LocalThreshold = 1
	if _, err := e.Gram(data); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Snapshot().ShuffleRounds == 0 {
		t.Fatal("distributed mode should shuffle")
	}
}

func TestSparkDistanceChargesReplication(t *testing.T) {
	cl := newCluster()
	e := sparkml.New(cl)
	e.BlockSize = 8
	data := workload.DenseVectors(11, 40, 3)
	metric := workload.MetricMatrix(12, 3)
	if _, _, err := e.Distance(data, metric); err != nil {
		t.Fatal(err)
	}
	snap := cl.Stats().Snapshot()
	if snap.BroadcastRounds == 0 || snap.BytesShuffled == 0 {
		t.Fatalf("BlockMatrix multiply should replicate blocks: %+v", snap)
	}
}

// TestSystemMLMultiBlockGram forces the column dimension across several
// blocks (d > BlockSize), exercising the tiled accumulation path.
func TestSystemMLMultiBlockGram(t *testing.T) {
	e := systemml.New(newCluster())
	e.BlockSize = 8
	e.LocalThreshold = 1                      // distributed path
	data := workload.DenseVectors(21, 50, 20) // 20 dims -> 3 column blocks
	got, err := e.Gram(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(refGram(t, data), 1e-9) {
		t.Fatal("multi-block gram disagrees with reference")
	}
}

// TestSciDBMultiChunkDistance forces several chunks so the chunk-pair
// streaming covers boundary filtering across chunks.
func TestSciDBMultiChunkDistance(t *testing.T) {
	e := scidb.New(newCluster())
	e.ChunkSize = 7 // 30 points -> 5 chunks incl. a partial tail
	data := workload.DenseVectors(22, 30, 3)
	metric := workload.MetricMatrix(23, 3)
	idx, val, err := e.Distance(data, metric)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantVal := refDistance(t, data, metric)
	if idx != wantIdx || math.Abs(val-wantVal) > 1e-9 {
		t.Fatalf("multi-chunk distance (%d, %g), want (%d, %g)", idx, val, wantIdx, wantVal)
	}
}

// TestSparkMultiBlockDistance exercises BlockMatrix tiling with a partial
// tail block.
func TestSparkMultiBlockDistance(t *testing.T) {
	e := sparkml.New(newCluster())
	e.BlockSize = 9 // 30 points -> 4 blocks incl. partial tail
	data := workload.DenseVectors(24, 30, 3)
	metric := workload.MetricMatrix(25, 3)
	idx, val, err := e.Distance(data, metric)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantVal := refDistance(t, data, metric)
	if idx != wantIdx || math.Abs(val-wantVal) > 1e-9 {
		t.Fatalf("multi-block distance (%d, %g), want (%d, %g)", idx, val, wantIdx, wantVal)
	}
}

// TestBaselinesUnderTransientFaults: every baseline task is a speculable
// compute that installs its partial at commit, so under crash, shuffle and
// straggler faults with speculation the distributed paths return results
// bit-identical to the fault-free run.
func TestBaselinesUnderTransientFaults(t *testing.T) {
	data := workload.DenseVectors(31, 40, 5)
	yRows := workload.RegressionTargets(32, data, workload.Beta(33, 5), 0.1)
	y := make([]float64, len(yRows))
	for i, r := range yRows {
		y[i] = r[1].D
	}
	metric := workload.MetricMatrix(34, 5)
	// bits runs the three computations and returns every output float's bits.
	bits := func(pl platform) []uint64 {
		g, err := pl.Gram(data)
		if err != nil {
			t.Fatalf("%s gram: %v", pl.Name(), err)
		}
		beta, err := pl.Regression(data, y)
		if err != nil {
			t.Fatalf("%s regression: %v", pl.Name(), err)
		}
		idx, val, err := pl.Distance(data, metric)
		if err != nil {
			t.Fatalf("%s distance: %v", pl.Name(), err)
		}
		var out []uint64
		for _, v := range append(append(g.Data, beta.Data...), float64(idx), val) {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	var want [][]uint64
	for _, pl := range smallPlatforms(newCluster()) {
		want = append(want, bits(pl))
	}
	var retries, launches int64
	for seed := uint64(1); seed <= 3; seed++ {
		cl := cluster.New(cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true,
			Faults: fault.Config{Seed: seed, MaxAttempts: 3, RetryBackoff: time.Microsecond,
				CrashProb: 0.3, ShuffleProb: 0.3, StragglerProb: 0.3,
				StragglerDelay: 200 * time.Microsecond, Speculate: true}})
		for i, pl := range smallPlatforms(cl) {
			got := bits(pl)
			if len(got) != len(want[i]) {
				t.Fatalf("seed %d %s: %d outputs, want %d", seed, pl.Name(), len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("seed %d %s: output %d differs from the fault-free run", seed, pl.Name(), j)
				}
			}
		}
		s := cl.Stats().Snapshot()
		retries += s.TaskRetries
		launches += s.SpeculativeLaunches
	}
	if retries == 0 || launches == 0 {
		t.Fatalf("faults did not exercise the runner: %d retries, %d speculative launches", retries, launches)
	}
}
