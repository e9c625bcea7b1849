// Package relalg's top-level benchmarks regenerate every table and figure in
// the paper's evaluation section at benchmark-friendly scale, plus the
// ablations DESIGN.md calls out. One benchmark per artifact:
//
//	BenchmarkFig1Gram          Figure 1 rows (platform × dimensionality)
//	BenchmarkFig2Regression    Figure 2 rows
//	BenchmarkFig3Distance      Figure 3 rows (tuple layout reported as Fail)
//	BenchmarkFig4Breakdown     Figure 4 (tuple vs vector operator split)
//	BenchmarkFig5PlanChoice    §4.1 optimizer plan selection
//	BenchmarkAblation*         design-choice ablations (A1-A3)
//
// Use cmd/labench for the paper-formatted tables; these benches feed
// `go test -bench . -benchmem`.
package relalg

import (
	"fmt"
	"testing"

	"relalg/internal/bench"
	"relalg/internal/cluster"
	"relalg/internal/core"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/value"
	"relalg/internal/workload"
)

// skipIfShort gates the long, cluster-simulating benchmarks so `go test
// -short -bench .` (and the verify script) stays fast.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping long benchmark in -short mode")
	}
}

// benchConfig is a trimmed QuickConfig so -bench runs stay snappy.
func benchConfig() bench.Config {
	cfg := bench.QuickConfig()
	cfg.Dims = []int{10, 40}
	cfg.GramN = 300
	cfg.DistN = 100
	cfg.BlockRows = 50
	cfg.Nodes = 2
	cfg.PerNode = 2
	return cfg
}

func BenchmarkFig1Gram(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	data := map[int][][]float64{}
	for _, d := range cfg.Dims {
		data[d] = workload.DenseVectors(cfg.Seed, cfg.GramN, d)
	}
	forEachPlatform(b, cfg, 0, func(b *testing.B, pl bench.Platform, d int) {
		for i := 0; i < b.N; i++ {
			if _, err := pl.Gram(data[d]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig2Regression(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	forEachPlatform(b, cfg, 0, func(b *testing.B, pl bench.Platform, d int) {
		data := workload.DenseVectors(cfg.Seed, cfg.GramN, d)
		beta := workload.Beta(cfg.Seed+1, d)
		yRows := workload.RegressionTargets(cfg.Seed+2, data, beta, 0.01)
		y := make([]float64, len(yRows))
		for i, r := range yRows {
			y[i] = r[1].D
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Regression(data, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig3Distance(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	budget := int64(cfg.DistBudgetFactor) * int64(cfg.DistN) * int64(cfg.DistN)
	forEachPlatform(b, cfg, budget, func(b *testing.B, pl bench.Platform, d int) {
		data := workload.DenseVectors(cfg.Seed, cfg.DistN, d)
		metric := workload.MetricMatrix(cfg.Seed+3, d)
		isTuple := pl.Name() == "Tuple SimSQL"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, err := pl.Distance(data, metric)
			if isTuple {
				// The tuple layout must exhaust the budget, as in Figure 3.
				if err == nil {
					b.Fatal("tuple distance should Fail under the paper's resource budget")
				}
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// forEachPlatform runs the body as a sub-benchmark per platform × dims.
func forEachPlatform(b *testing.B, cfg bench.Config, budget int64, body func(*testing.B, bench.Platform, int)) {
	for _, pl := range bench.Platforms(cfg, budget) {
		for _, d := range cfg.Dims {
			pl, d := pl, d
			b.Run(fmt.Sprintf("%s/d=%d", pl.Name(), d), func(b *testing.B) {
				body(b, pl, d)
			})
		}
	}
}

func BenchmarkFig4Breakdown(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		br, err := bench.RunBreakdown(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(br.Variants) != 2 {
			b.Fatal("breakdown incomplete")
		}
	}
}

// BenchmarkFig5PlanChoice measures full plan/optimize latency for the §4.1
// query and asserts the winning plan shape each iteration.
func BenchmarkFig5PlanChoice(b *testing.B) {
	cat, err := bench.PaperSchemaCatalog()
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := sqlparse.Parse(bench.PaperOptimizerQuery)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sqlparse.Select)
	o := opt.New(opt.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logical, err := plan.NewBuilder(cat).BuildSelect(sel)
		if err != nil {
			b.Fatal(err)
		}
		optimized, err := o.Optimize(logical)
		if err != nil {
			b.Fatal(err)
		}
		if !planContainsCross(optimized) {
			b.Fatal("optimizer lost the paper's cross-product plan")
		}
	}
}

func planContainsCross(n plan.Node) bool {
	if _, ok := n.(*plan.Cross); ok {
		return true
	}
	for _, c := range n.Children() {
		if planContainsCross(c) {
			return true
		}
	}
	return false
}

// ablationDB loads a scaled-down §4.1 instance whose execution time depends
// on the chosen plan: 30 R and S rows of 4×5000 / 5000×4 matrices against
// 600 T pairs. The LA-aware plan crosses R and S (900 pairs, 800 B products)
// and joins T against the shrunken result; the size-blind plan estimates by
// row counts alone (900 > 600), avoids the cross product, and drags a 160 KB
// matrix copy per T row through two shuffles (~3x the bytes).
func ablationDB(b *testing.B, opts opt.Options) *core.Database {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true, NetworkBytesPerSec: 300e6}
	cfg.Optimizer = opts
	db := core.Open(cfg)
	db.MustExec(`CREATE TABLE r (r_rid INTEGER, r_matrix MATRIX[4][5000])`)
	db.MustExec(`CREATE TABLE s (s_sid INTEGER, s_matrix MATRIX[5000][4])`)
	db.MustExec(`CREATE TABLE t (t_rid INTEGER, t_sid INTEGER)`)
	var rrows, srows, trows []value.Row
	for i := 0; i < 30; i++ {
		rm, err := core.MatrixValue(constMatrix(4, 5000, float64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		sm, err := core.MatrixValue(constMatrix(5000, 4, float64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		rrows = append(rrows, value.Row{value.Int(int64(i)), rm})
		srows = append(srows, value.Row{value.Int(int64(i)), sm})
	}
	// T must dominate R and S (the paper used 1000 T rows against 100-row
	// R and S): the size-blind plan then drags one matrix copy per T row.
	for i := 0; i < 600; i++ {
		trows = append(trows, value.Row{value.Int(int64(i % 30)), value.Int(int64((i * 7) % 30))})
	}
	mustLoad := func(name string, rows []value.Row) {
		if err := db.LoadTable(name, rows); err != nil {
			b.Fatal(err)
		}
	}
	mustLoad("r", rrows)
	mustLoad("s", srows)
	mustLoad("t", trows)
	return db
}

func constMatrix(r, c int, v float64) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		row := make([]float64, c)
		for j := range row {
			row[j] = v
		}
		out[i] = row
	}
	return out
}

const paper41SQL = `SELECT matrix_multiply(r_matrix, s_matrix) AS p
	FROM r, s, t WHERE r_rid = t_rid AND s_sid = t_sid`

// BenchmarkAblationLAAware executes the §4.1 query with the full optimizer.
func BenchmarkAblationLAAware(b *testing.B) {
	skipIfShort(b)
	db := ablationDB(b, opt.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(paper41SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSizeBlind executes it with size-blind costing (A1): the
// optimizer picks the join-predicate plan and drags the matrices through T.
func BenchmarkAblationSizeBlind(b *testing.B) {
	skipIfShort(b)
	opts := opt.DefaultOptions()
	opts.SizeAwareCosting = false
	db := ablationDB(b, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(paper41SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoEagerProject disables early function application (A2).
func BenchmarkAblationNoEagerProject(b *testing.B) {
	skipIfShort(b)
	opts := opt.DefaultOptions()
	opts.EagerProjection = false
	db := ablationDB(b, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(paper41SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// serdeDB builds a shuffle-dominated workload for the ser-de ablation (A3):
// a join that moves 2000 wide vector rows per side with trivial compute, so
// the cost of encoding/decoding rows at the exchange is the signal.
func serdeDB(b *testing.B, serialize bool) *core.Database {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: serialize}
	db := core.Open(cfg)
	db.MustExec(`CREATE TABLE xv (id INTEGER, value VECTOR[])`)
	db.MustExec(`CREATE TABLE y (i INTEGER, y_i DOUBLE)`)
	data := workload.DenseVectors(1, 2000, 500)
	if err := db.LoadTable("xv", workload.VectorRows(data)); err != nil {
		b.Fatal(err)
	}
	if err := db.LoadTable("y", workload.RegressionTargets(2, data, workload.Beta(3, 500), 0)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkAblationShuffleSerde compares a shuffle-heavy join with and
// without serialization at the exchanges (A3).
func BenchmarkAblationShuffleSerde(b *testing.B) {
	skipIfShort(b)
	for _, serialize := range []bool{true, false} {
		b.Run(fmt.Sprintf("serialize=%v", serialize), func(b *testing.B) {
			db := serdeDB(b, serialize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(`SELECT SUM(x.value * y.y_i) AS xty FROM xv AS x, y WHERE x.id = y.i`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAggFusion compares the fused SUM(outer_product)
// accumulation (A4, the engine default) against the 2017-SimSQL behaviour
// of materializing one outer-product matrix per input row.
func BenchmarkAblationAggFusion(b *testing.B) {
	skipIfShort(b)
	for _, disable := range []bool{false, true} {
		name := "fused"
		if disable {
			name = "unfused"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
			cfg.DisableAggFusion = disable
			db := core.Open(cfg)
			db.MustExec(`CREATE TABLE xv (id INTEGER, value VECTOR[])`)
			if err := db.LoadTable("xv", workload.VectorRows(workload.DenseVectors(1, 800, 100))); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(`SELECT SUM(outer_product(x.value, x.value)) FROM xv AS x`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTPS measures raw relational throughput (tuples/sec through
// a join + aggregation), the per-tuple overhead Figure 4 is about.
func BenchmarkEngineTPS(b *testing.B) {
	skipIfShort(b)
	cfg := core.DefaultConfig()
	cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
	db := core.Open(cfg)
	db.MustExec(`CREATE TABLE t (k INTEGER, v DOUBLE)`)
	var rows []value.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, value.Row{value.Int(int64(i % 100)), value.Double(float64(i))})
	}
	if err := db.LoadTable("t", rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT t1.k, SUM(t1.v * t2.v) FROM t AS t1, t AS t2 WHERE t1.k = t2.k GROUP BY t1.k`); err != nil {
			b.Fatal(err)
		}
	}
}
