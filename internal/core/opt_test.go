package core

import (
	"math"
	"testing"

	"relalg/internal/opt"
	"relalg/internal/value"
)

// rewriteTestLoad fills db with the tables the rewrite-equivalence queries
// run over. The special-valued tables (vs, ms) carry NaN, ±Inf, and -0
// payloads and are only queried through rewrites that are bit-identical per
// element (outer-product recognition, double-transpose elimination, CSE)
// or through fused accumulation. The integer-valued tables (mi, vi) feed the
// rewrites that re-associate floating-point reductions (chain reordering,
// aggregate pushdown), where integer-valued data keeps every association
// exact.
func rewriteTestLoad(t *testing.T, db *Database) {
	t.Helper()
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25}

	db.MustExec("CREATE TABLE vs (x VECTOR[6], y VECTOR[6])")
	vsRows := make([]value.Row, 40)
	for i := range vsRows {
		mk := func(off int) value.Value {
			e := make([]float64, 6)
			for j := range e {
				e[j] = special[(i+j+off)%len(special)]
			}
			return VectorValue(e...)
		}
		vsRows[i] = value.Row{mk(0), mk(3)}
	}
	if err := db.LoadTable("vs", vsRows); err != nil {
		t.Fatal(err)
	}

	db.MustExec("CREATE TABLE ms (m MATRIX[5][5], m2 MATRIX[5][5])")
	msRows := make([]value.Row, 30)
	for i := range msRows {
		mk := func(off int) value.Value {
			cells := make([][]float64, 5)
			for r := range cells {
				cells[r] = make([]float64, 5)
				for c := range cells[r] {
					cells[r][c] = special[(i+r*5+c+off)%len(special)]
				}
			}
			v, err := MatrixValue(cells)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		msRows[i] = value.Row{mk(0), mk(2)}
	}
	if err := db.LoadTable("ms", msRows); err != nil {
		t.Fatal(err)
	}

	db.MustExec("CREATE TABLE mi (a MATRIX[20][20], b MATRIX[20][20], c MATRIX[20][3])")
	miRows := make([]value.Row, 20)
	for i := range miRows {
		mk := func(rows, cols, off int) value.Value {
			cells := make([][]float64, rows)
			for r := range cells {
				cells[r] = make([]float64, cols)
				for c := range cells[r] {
					cells[r][c] = float64((i+r*cols+c+off)%9 - 4)
				}
			}
			v, err := MatrixValue(cells)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		miRows[i] = value.Row{mk(20, 20, 0), mk(20, 20, 5), mk(20, 3, 11)}
	}
	if err := db.LoadTable("mi", miRows); err != nil {
		t.Fatal(err)
	}

	db.MustExec("CREATE TABLE vi (g INTEGER, x VECTOR[8], y VECTOR[8])")
	viRows := make([]value.Row, 200)
	for i := range viRows {
		// Strictly positive integers: a 0·negative product would be -0 in a
		// direct outer product but +0 through the matmul kernel's accumulator.
		mk := func(off int) value.Value {
			e := make([]float64, 8)
			for j := range e {
				e[j] = float64((i*7+j+off)%9 + 1)
			}
			return VectorValue(e...)
		}
		viRows[i] = value.Row{value.Int(int64(i % 6)), mk(0), mk(4)}
	}
	if err := db.LoadTable("vi", viRows); err != nil {
		t.Fatal(err)
	}
}

// rewriteEquivQueries covers every rewrite rule end to end; comments note
// which rule each query fires.
var rewriteEquivQueries = []string{
	// Outer-product recognition. Integer data: the matmul kernel the baseline
	// runs accumulates each cell from 0, so a -0 product would round to +0
	// there while outer_product writes x_i*y_j directly — the rewrite is
	// value-equal but not (-0)-bit-equal.
	"SELECT matrix_multiply(col_matrix(x), row_matrix(y)) AS op FROM vi",
	// Fused SUM(outer_product): no rule fires, and the executor fuses both
	// legs, so this pins that fusion does not depend on Optimizer.Rewrites.
	"SELECT SUM(outer_product(x, y)) AS s FROM vs",
	// Double-transpose elimination (exact).
	"SELECT trans_matrix(trans_matrix(m)) AS back FROM ms",
	// CSE: the shared multiply is pure, so sharing is exact even over NaN.
	"SELECT trace(matrix_multiply(m, m2)) AS t1, sum_matrix(matrix_multiply(m, m2)) AS t2 FROM ms",
	// Chain reordering (re-associates; integer-valued data keeps it exact),
	// including the normal-equations chain t(A)·A·C, summed.
	"SELECT matrix_multiply(matrix_multiply(a, b), c) AS p FROM mi",
	"SELECT SUM(matrix_multiply(matrix_multiply(trans_matrix(a), a), c)) AS s FROM mi",
	// Aggregate pushdown, scalar and grouped (re-associates; integer data).
	"SELECT trace(SUM(a)) AS tr FROM mi",
	"SELECT g, sum_vector(SUM(x)) AS sv FROM vi GROUP BY g ORDER BY g",
}

// TestRewriteEquivalenceBitIdentical pins the rewrite layer's contract:
// every rewritten plan produces results byte-identical (EncodeRows, so NaN
// payloads compare too) to the unrewritten plan's.
func TestRewriteEquivalenceBitIdentical(t *testing.T) {
	build := func(rewrites bool, st *opt.RewriteStats) *Database {
		cfg := DefaultConfig()
		cfg.Cluster.Nodes = 2
		cfg.Cluster.PartitionsPerNode = 2
		cfg.Optimizer.Rewrites = rewrites
		cfg.Optimizer.Stats = st
		db := Open(cfg)
		rewriteTestLoad(t, db)
		return db
	}

	baseline := build(false, nil)
	want := make([]string, len(rewriteEquivQueries))
	for qi, q := range rewriteEquivQueries {
		res, err := baseline.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[qi] = resultText(res)
	}

	for _, rewrites := range []bool{true, false} {
		st := &opt.RewriteStats{}
		db := build(rewrites, st)
		for qi, q := range rewriteEquivQueries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("rewrites=%v %q: %v", rewrites, q, err)
			}
			if got := resultText(res); got != want[qi] {
				t.Fatalf("rewrites=%v %q diverged:\nwant %s\ngot  %s", rewrites, q, want[qi], got)
			}
		}
		if rewrites && st.Total() == 0 {
			t.Fatal("no rewrite rule fired across the whole query set")
		}
		if !rewrites && st.Total() != 0 {
			t.Fatalf("rewrites disabled but counters fired: %s", st.String())
		}
	}
}

// adaptiveTestDB loads a three-table join workload and then corrupts the
// catalog statistics so the optimizer grossly under-estimates the filtered
// big1 input (every row passes the filter, but the seeded distinct count
// says 1 in 1000 will).
func adaptiveTestDB(t *testing.T, replanFactor float64) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	cfg.ReplanFactor = replanFactor
	db := Open(cfg)
	db.MustExec("CREATE TABLE big1 (id INTEGER, flag INTEGER)")
	db.MustExec("CREATE TABLE big2 (id INTEGER, v INTEGER)")
	db.MustExec("CREATE TABLE small (id INTEGER)")
	mkRows := func(n int, second func(i int) int64) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i % 97)), value.Int(second(i))}
		}
		return rows
	}
	if err := db.LoadTable("big1", mkRows(2000, func(int) int64 { return 7 })); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("big2", mkRows(2000, func(i int) int64 { return int64(i) })); err != nil {
		t.Fatal(err)
	}
	smallRows := make([]value.Row, 5)
	for i := range smallRows {
		smallRows[i] = value.Row{value.Int(int64(i))}
	}
	if err := db.LoadTable("small", smallRows); err != nil {
		t.Fatal(err)
	}
	// Lie to the optimizer: flag "has" 1000 distinct values, so the pushed
	// filter flag = 7 estimates ~2 rows where 2000 arrive.
	db.Catalog().SetDistinct("big1", "flag", 1000)
	return db
}

const adaptiveQuery = `SELECT COUNT(*) AS n
	FROM big1, big2, small
	WHERE big1.id = big2.id AND big2.id = small.id AND big1.flag = 7`

// TestAdaptiveReplanFiresAndPreservesResults pins the adaptive loop: under a
// seeded 1000× mis-estimate the executor must re-plan the join region
// (Stats.Replans > 0) and still return exactly the rows of the
// non-adaptive run.
func TestAdaptiveReplanFiresAndPreservesResults(t *testing.T) {
	static := adaptiveTestDB(t, 0)
	wantRes, err := static.Query(adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if static.Cluster().Stats().Snapshot().Replans != 0 {
		t.Fatal("ReplanFactor=0 must never re-plan")
	}

	adaptive := adaptiveTestDB(t, 10)
	gotRes, err := adaptive.Query(adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultText(gotRes), resultText(wantRes); got != want {
		t.Fatalf("adaptive run changed the result:\nwant %s\ngot  %s", want, got)
	}
	replans := adaptive.Cluster().Stats().Snapshot().Replans
	if replans == 0 {
		t.Fatal("seeded 1000x mis-estimate did not trigger a re-plan")
	}
	if gotRes.Stats.Replans != replans {
		t.Fatalf("Result.Stats.Replans = %d, cluster counter = %d", gotRes.Stats.Replans, replans)
	}
}

// TestAdaptiveAccurateEstimatesDoNotReplan: with truthful statistics the
// adaptive machinery must stay silent even when enabled.
func TestAdaptiveAccurateEstimatesDoNotReplan(t *testing.T) {
	db := adaptiveTestDB(t, 10)
	// Restore the truth analyze() computed before the test corrupted it.
	db.Catalog().SetDistinct("big1", "flag", 1)
	if _, err := db.Query(adaptiveQuery); err != nil {
		t.Fatal(err)
	}
	if n := db.Cluster().Stats().Snapshot().Replans; n != 0 {
		t.Fatalf("accurate estimates re-planned %d regions", n)
	}
}

// TestAdaptiveRepeatedQueriesStayIdentical runs the adaptive query several
// times on one database: re-planning is per-execution state, so every run
// must return the same rows.
func TestAdaptiveRepeatedQueriesStayIdentical(t *testing.T) {
	db := adaptiveTestDB(t, 10)
	var first string
	for i := 0; i < 3; i++ {
		res, err := db.Query(adaptiveQuery)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resultText(res)
			continue
		}
		if got := resultText(res); got != first {
			t.Fatalf("run %d diverged:\nwant %s\ngot  %s", i, first, got)
		}
	}
	if n := db.Cluster().Stats().Snapshot().Replans; n < 3 {
		t.Fatalf("expected a re-plan per run, got %d", n)
	}
}
