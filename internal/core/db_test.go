package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

func testDB(t *testing.T) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	return Open(cfg)
}

func mustQuery(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE y (i INTEGER, y_i DOUBLE)")
	db.MustExec("INSERT INTO y VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
	res := mustQuery(t, db, "SELECT i, y_i FROM y ORDER BY i")
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 1 || res.Rows[2][1].D != 3.5 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Schema.String() != "(i INTEGER, y_i DOUBLE)" {
		t.Fatalf("schema %s", res.Schema)
	}
}

func TestWhereAndExpressions(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER, b DOUBLE)")
	db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	res := mustQuery(t, db, "SELECT a, b * 2 AS dbl FROM t WHERE a >= 2 AND b < 40 ORDER BY a")
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Rows[0][1].D != 40 || res.Rows[1][1].D != 60 {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (g INTEGER, v DOUBLE)")
	db.MustExec("INSERT INTO t VALUES (1, 1), (1, 2), (2, 10), (2, 20), (2, 30)")
	res := mustQuery(t, db, "SELECT g, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER BY g")
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	r1, r2 := res.Rows[0], res.Rows[1]
	if r1[1].D != 3 || r1[2].I != 2 || r1[3].D != 1.5 || r1[4].D != 1 || r1[5].D != 2 {
		t.Fatalf("group 1: %v", r1)
	}
	if r2[1].D != 60 || r2[2].I != 3 || r2[3].D != 20 || r2[4].D != 10 || r2[5].D != 30 {
		t.Fatalf("group 2: %v", r2)
	}
}

func TestScalarAggregateOverEmpty(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (v DOUBLE)")
	res := mustQuery(t, db, "SELECT SUM(v), COUNT(*) FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("rows %v", res.Rows)
	}
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].I != 0 {
		t.Fatalf("empty aggregate row %v", res.Rows[0])
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE a (id INTEGER, x DOUBLE)")
	db.MustExec("CREATE TABLE b (id INTEGER, y DOUBLE)")
	db.MustExec("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
	db.MustExec("INSERT INTO b VALUES (2, 200), (3, 300), (4, 400)")
	res := mustQuery(t, db, "SELECT a.id, x, y FROM a, b WHERE a.id = b.id ORDER BY a.id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Rows[0][0].I != 2 || res.Rows[0][2].D != 200 || res.Rows[1][2].D != 300 {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestThreeWayJoinAndGroup(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE f (k INTEGER, v DOUBLE)")
	db.MustExec("CREATE TABLE g (k INTEGER, w DOUBLE)")
	db.MustExec("CREATE TABLE h (k INTEGER)")
	db.MustExec("INSERT INTO f VALUES (1, 1), (2, 2)")
	db.MustExec("INSERT INTO g VALUES (1, 10), (2, 20)")
	db.MustExec("INSERT INTO h VALUES (1), (1), (2)")
	res := mustQuery(t, db, `SELECT f.k, SUM(v * w) FROM f, g, h
		WHERE f.k = g.k AND g.k = h.k GROUP BY f.k ORDER BY f.k`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Rows[0][1].D != 20 || res.Rows[1][1].D != 40 {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestVectorColumnRoundTrip(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE v (id INTEGER, vec VECTOR[3])")
	rows := []value.Row{
		{value.Int(1), VectorValue(1, 2, 3)},
		{value.Int(2), VectorValue(4, 5, 6)},
	}
	if err := db.LoadTable("v", rows); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT id, vec * 2 AS d FROM v ORDER BY id")
	if !res.Rows[0][1].Vec.Equal(linalg.VectorOf(2, 4, 6)) {
		t.Fatalf("scaled vector %v", res.Rows[0][1])
	}
	// Dimension enforcement at load time.
	err := db.LoadTable("v", []value.Row{{value.Int(3), VectorValue(1)}})
	if err == nil {
		t.Fatal("loaded 1-entry vector into VECTOR[3]")
	}
}

// TestPaperVectorizeAndRowMatrix runs the §3.3 conversion pipeline verbatim:
// normalized triples -> labeled vectors per row -> a single matrix.
func TestPaperVectorizeAndRowMatrix(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE mat (row INTEGER, col INTEGER, value DOUBLE)")
	var rows []value.Row
	// 3x2 matrix with entry (r,c) = 10r + c.
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			rows = append(rows, value.Row{value.Int(int64(r)), value.Int(int64(c)), value.Double(float64(10*r + c))})
		}
	}
	if err := db.LoadTable("mat", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE VIEW vecs AS
		SELECT VECTORIZE(label_scalar(value, col)) AS vec, row
		FROM mat GROUP BY row`)
	res := mustQuery(t, db, `SELECT ROWMATRIX(label_vector(vec, row)) FROM vecs`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows %v", res.Rows)
	}
	m := res.Rows[0][0].Mat
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("matrix shape %dx%d", m.Rows, m.Cols)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			if m.At(r, c) != float64(10*r+c) {
				t.Fatalf("entry (%d,%d) = %g", r, c, m.At(r, c))
			}
		}
	}
	// And normalize back with get_scalar (paper §3.3).
	db.MustExec("CREATE TABLE label (id INTEGER)")
	db.MustExec("INSERT INTO label VALUES (0), (1)")
	norm := mustQuery(t, db, `SELECT vecs.row, label.id, get_scalar(vecs.vec, label.id) AS v
		FROM vecs, label ORDER BY vecs.row, label.id`)
	if len(norm.Rows) != 6 {
		t.Fatalf("normalized rows %d", len(norm.Rows))
	}
	if norm.Rows[3][2].D != 10 { // row 1, col 1 -> wait: ordered (row,id): [0,0],[0,1],[1,0],[1,1]...
		t.Logf("rows: %v", norm.Rows)
	}
}

// TestGramMatrixThreeLayouts checks that the tuple-based, vector-based, and
// block-based Gram computations (the three SimSQL variants of the paper's
// experiments) agree.
func TestGramMatrixThreeLayouts(t *testing.T) {
	const n, d = 40, 3
	db := testDB(t)
	// Deterministic data: x[i][j] = (i*j mod 5) - 2.
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		for j := range data[i] {
			data[i][j] = float64((i*(j+1))%5) - 2
		}
	}
	// Reference Gram.
	X, _ := linalg.MatrixFromRows(data)
	want, _ := X.Transpose().MulMat(X)

	// Tuple layout.
	db.MustExec("CREATE TABLE xt (row_index INTEGER, col_index INTEGER, value DOUBLE)")
	var trows []value.Row
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			trows = append(trows, value.Row{value.Int(int64(i)), value.Int(int64(j)), value.Double(data[i][j])})
		}
	}
	if err := db.LoadTable("xt", trows); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
		FROM xt AS x1, xt AS x2
		WHERE x1.row_index = x2.row_index
		GROUP BY x1.col_index, x2.col_index`)
	if len(res.Rows) != d*d {
		t.Fatalf("tuple gram rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		i, j, v := r[0].I, r[1].I, r[2].D
		if math.Abs(v-want.At(int(i), int(j))) > 1e-9 {
			t.Fatalf("tuple gram (%d,%d) = %g, want %g", i, j, v, want.At(int(i), int(j)))
		}
	}

	// Vector layout.
	db.MustExec("CREATE TABLE xv (id INTEGER, value VECTOR[])")
	var vrows []value.Row
	for i := 0; i < n; i++ {
		vrows = append(vrows, value.Row{value.Int(int64(i)), VectorValue(data[i]...)})
	}
	if err := db.LoadTable("xv", vrows); err != nil {
		t.Fatal(err)
	}
	res = mustQuery(t, db, `SELECT SUM(outer_product(x.value, x.value)) FROM xv AS x`)
	if !res.Rows[0][0].Mat.EqualApprox(want, 1e-9) {
		t.Fatalf("vector gram = %v, want %v", res.Rows[0][0].Mat, want)
	}

	// Block layout (blocks of 10 rows), built with the paper's blocking SQL.
	db.MustExec("CREATE TABLE block_index (mi INTEGER)")
	for i := 0; i < n/10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO block_index VALUES (%d)", i))
	}
	db.MustExec(`CREATE VIEW mlx AS
		SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*10)) AS m
		FROM xv AS x, block_index AS ind
		WHERE x.id/10 = ind.mi
		GROUP BY ind.mi`)
	res = mustQuery(t, db, `SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) FROM mlx`)
	if !res.Rows[0][0].Mat.EqualApprox(want, 1e-9) {
		t.Fatalf("block gram = %v, want %v", res.Rows[0][0].Mat, want)
	}
}

// TestLinearRegressionSQL runs the paper's §3.2 regression query:
// beta = inverse(sum xi xi^T) (sum xi yi).
func TestLinearRegressionSQL(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE xr (i INTEGER, x_i VECTOR[])")
	db.MustExec("CREATE TABLE yr (i INTEGER, y_i DOUBLE)")
	// y = 2*x0 - 3*x1 exactly; 30 points make the normal equations well posed.
	var xrows, yrows []value.Row
	for i := 0; i < 30; i++ {
		x0 := float64(i%7) - 3
		x1 := float64((i*3)%5) - 2
		xrows = append(xrows, value.Row{value.Int(int64(i)), VectorValue(x0, x1)})
		yrows = append(yrows, value.Row{value.Int(int64(i)), value.Double(2*x0 - 3*x1)})
	}
	if err := db.LoadTable("xr", xrows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("yr", yrows); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `SELECT matrix_vector_multiply(
			matrix_inverse(SUM(outer_product(xr.x_i, xr.x_i))),
			SUM(xr.x_i * y_i))
		FROM xr, yr WHERE xr.i = yr.i`)
	beta := res.Rows[0][0].Vec
	if !beta.EqualApprox(linalg.VectorOf(2, -3), 1e-8) {
		t.Fatalf("beta = %v, want [2 -3]", beta)
	}
}

// TestBigMatrixTiledMultiply runs the §3.4 distributed multiply of two
// tiled matrices and checks it against the dense product.
func TestBigMatrixTiledMultiply(t *testing.T) {
	db := testDB(t)
	const tiles, ts = 2, 3 // 2x2 grid of 3x3 tiles => 6x6 matrices
	db.MustExec("CREATE TABLE bigmatrix (tilerow INTEGER, tilecol INTEGER, mat MATRIX[3][3])")
	db.MustExec("CREATE TABLE anotherbigmat (tilerow INTEGER, tilecol INTEGER, mat MATRIX[3][3])")

	dense := func(seed int) *linalg.Matrix {
		m := linalg.NewMatrix(tiles*ts, tiles*ts)
		for i := range m.Data {
			m.Data[i] = float64((i*seed)%7) - 3
		}
		return m
	}
	A, B := dense(3), dense(5)
	loadTiles := func(table string, m *linalg.Matrix) {
		var rows []value.Row
		for tr := 0; tr < tiles; tr++ {
			for tc := 0; tc < tiles; tc++ {
				tile, err := m.SubMatrix(tr*ts, (tr+1)*ts, tc*ts, (tc+1)*ts)
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, value.Row{value.Int(int64(tr)), value.Int(int64(tc)), value.Matrix(tile)})
			}
		}
		if err := db.LoadTable(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	loadTiles("bigmatrix", A)
	loadTiles("anotherbigmat", B)

	res := mustQuery(t, db, `SELECT lhs.tilerow, rhs.tilecol,
			SUM(matrix_multiply(lhs.mat, rhs.mat))
		FROM bigmatrix AS lhs, anotherbigmat AS rhs
		WHERE lhs.tilecol = rhs.tilerow
		GROUP BY lhs.tilerow, rhs.tilecol`)
	if len(res.Rows) != tiles*tiles {
		t.Fatalf("tile rows %d", len(res.Rows))
	}
	want, _ := A.MulMat(B)
	for _, r := range res.Rows {
		tr, tc := int(r[0].I), int(r[1].I)
		wantTile, _ := want.SubMatrix(tr*ts, (tr+1)*ts, tc*ts, (tc+1)*ts)
		if !r[2].Mat.EqualApprox(wantTile, 1e-9) {
			t.Fatalf("tile (%d,%d) = %v, want %v", tr, tc, r[2].Mat, wantTile)
		}
	}
}

// TestRiemannianDistanceQuery runs the §2.3 rewritten distance query.
func TestRiemannianDistanceQuery(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE pts (pointid INTEGER, val VECTOR[2])")
	db.MustExec("CREATE TABLE matrixa (val MATRIX[2][2])")
	pts := [][]float64{{0, 0}, {1, 0}, {0, 2}}
	var rows []value.Row
	for i, p := range pts {
		rows = append(rows, value.Row{value.Int(int64(i)), VectorValue(p...)})
	}
	if err := db.LoadTable("pts", rows); err != nil {
		t.Fatal(err)
	}
	av, err := MatrixValue([][]float64{{2, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("matrixa", []value.Row{{av}}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `SELECT x2.pointid,
			inner_product(
				matrix_vector_multiply(a.val, x1.val - x2.val),
				x1.val - x2.val) AS value
		FROM pts AS x1, pts AS x2, matrixa AS a
		WHERE x1.pointid = 0
		ORDER BY x2.pointid`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %v", res.Rows)
	}
	// d(x0, x0)=0; d(x0, x1)=(−1,0)A(−1,0)ᵀ=2; d(x0, x2)=(0,−2)A(0,−2)ᵀ=4.
	want := []float64{0, 2, 4}
	for i, r := range res.Rows {
		if r[1].D != want[i] {
			t.Fatalf("distance to %d = %g, want %g", i, r[1].D, want[i])
		}
	}
}

func TestHavingAndLimit(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (g INTEGER, v DOUBLE)")
	db.MustExec("INSERT INTO t VALUES (1, 1), (2, 10), (2, 10), (3, 100), (3, 100), (3, 100)")
	res := mustQuery(t, db, `SELECT g, COUNT(*) AS c FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY g LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestExplainStatement(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	res, err := db.Run("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].S + "\n"
	}
	if !strings.Contains(joined, "Scan t") {
		t.Fatalf("explain output:\n%s", joined)
	}
}

func TestDropAndErrors(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("DROP TABLE t")
	if err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("double drop succeeded")
	}
	db.MustExec("DROP TABLE IF EXISTS t")
	if err := db.Exec("CREATE TABLE bad (a INTEGER, a DOUBLE)"); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := db.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if err := db.Exec("CREATE TABLE t2 (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO t2 VALUES (1, 2)"); err == nil {
		t.Fatal("wrong arity insert accepted")
	}
	if err := db.Exec("INSERT INTO t2 VALUES ('x')"); err == nil {
		t.Fatal("type-mismatched insert accepted")
	}
	if _, err := db.Query("CREATE TABLE t3 (a INTEGER)"); err == nil {
		t.Fatal("Query of DDL should fail")
	}
}

func TestViewTypeCheckedAtCreate(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	if err := db.Exec("CREATE VIEW v AS SELECT nosuch FROM t"); err == nil {
		t.Fatal("invalid view accepted")
	}
}

func TestTupleBudgetFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 1
	cfg.Cluster.PartitionsPerNode = 2
	cfg.Cluster.MaxIntermediateTuples = 500
	db := Open(cfg)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{value.Int(int64(i))})
	}
	if err := db.LoadTable("t", rows); err != nil {
		t.Fatal(err)
	}
	// The self cross join produces 10,000 tuples > budget: must fail like
	// the paper's tuple-based distance computation.
	_, err := db.Query("SELECT t1.a FROM t AS t1, t AS t2 WHERE t1.a <> t2.a")
	if !errors.Is(err, cluster.ErrResourceExhausted) {
		t.Fatalf("error = %v, want ErrResourceExhausted", err)
	}
}

// TestTupleBudgetBoundary pins the tuple budget's edge on one partition,
// where charges happen in a fixed order: a statement whose operators
// materialize exactly the budget succeeds, and each failing budget below
// returns the same error and counters every run. The compute's peek and the
// commit's charge each count a task's tuples once, so a check that counts
// them twice (say, a peek in an Install, after the charge) or one that lets
// a runaway operator finish before failing moves these numbers.
func TestTupleBudgetBoundary(t *testing.T) {
	run := func(budget int64, sql string) (cluster.StatsSnapshot, error) {
		cfg := DefaultConfig()
		cfg.Cluster.Nodes, cfg.Cluster.PartitionsPerNode = 1, 1
		cfg.Cluster.MaxIntermediateTuples = budget
		db := Open(cfg)
		loadSpillTables(t, db)
		_, err := db.Query(sql)
		return db.Cluster().Stats().Snapshot(), err
	}
	const cross = "SELECT l.id, r.id FROM l, r WHERE l.id <> r.id"
	for _, tc := range []struct {
		budget   int64
		sql      string
		err      string
		produced int64
	}{
		{1230, spillQuery, "", 1230},
		{1229, spillQuery, "sort: cluster: intermediate tuple budget exhausted: 1230 tuples exceeds budget 1229", 1230},
		{1199, spillQuery, "hash join: cluster: intermediate tuple budget exhausted: 1200 tuples exceeds budget 1199", 1200},
		{1000, cross, "cross join: cluster: intermediate tuple budget exhausted: 5985 tuples exceeds budget 1000", 900},
	} {
		s, err := run(tc.budget, tc.sql)
		got := ""
		if err != nil {
			got = err.Error()
			if !errors.Is(err, cluster.ErrResourceExhausted) {
				t.Errorf("budget %d: error %v, want ErrResourceExhausted", tc.budget, err)
			}
		}
		if got != tc.err || s.TuplesProduced != tc.produced {
			t.Errorf("budget %d: error %q, %d tuples produced; want %q, %d", tc.budget, got, s.TuplesProduced, tc.err, tc.produced)
		}
	}
}

func TestRunScript(t *testing.T) {
	db := testDB(t)
	results, err := db.RunScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;
		SELECT COUNT(*) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	if results[0].Rows[0][0].I != 3 || results[1].Rows[0][0].I != 2 {
		t.Fatalf("script results %v %v", results[0].Rows, results[1].Rows)
	}
}

func TestQueryStatsExposed(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE a (id INTEGER)")
	db.MustExec("CREATE TABLE b (id INTEGER)")
	var rows []value.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, value.Row{value.Int(int64(i))})
	}
	if err := db.LoadTable("a", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("b", rows); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT a.id FROM a, b WHERE a.id = b.id")
	if len(res.Rows) != 50 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if res.Stats.ShuffleRounds == 0 {
		t.Fatal("join should shuffle")
	}
	if res.Timings.Get("join") == 0 {
		t.Fatal("join timing missing")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT 1 + 2 AS v, 'hi' AS s")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 || res.Rows[0][1].S != "hi" {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestDistinctStatsMaintained(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (g INTEGER, v DOUBLE)")
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{value.Int(int64(i % 10)), value.Double(float64(i))})
	}
	if err := db.LoadTable("t", rows); err != nil {
		t.Fatal(err)
	}
	meta, _ := db.Catalog().Table("t")
	if meta.RowCount() != 100 {
		t.Fatalf("rowcount %d", meta.RowCount())
	}
	if d := meta.Distinct("g"); d != 10 {
		t.Fatalf("distinct(g) = %g", d)
	}
	if d := meta.Distinct("v"); d != 100 {
		t.Fatalf("distinct(v) = %g", d)
	}
}

func TestCreateTableAs(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE src (g INTEGER, v DOUBLE)")
	db.MustExec("INSERT INTO src VALUES (1, 2), (1, 3), (2, 10)")
	db.MustExec("CREATE TABLE agg AS SELECT g, SUM(v) AS total FROM src GROUP BY g")
	res := mustQuery(t, db, "SELECT g, total FROM agg ORDER BY g")
	if len(res.Rows) != 2 || res.Rows[0][1].D != 5 || res.Rows[1][1].D != 10 {
		t.Fatalf("rows %v", res.Rows)
	}
	meta, ok := db.Catalog().Table("agg")
	if !ok || meta.RowCount() != 2 {
		t.Fatalf("meta %+v", meta)
	}
	if meta.Schema.String() != "(g INTEGER, total DOUBLE)" {
		t.Fatalf("schema %s", meta.Schema)
	}
	// Duplicate output names are disambiguated.
	db.MustExec("CREATE TABLE dup AS SELECT g, g FROM src")
	meta, _ = db.Catalog().Table("dup")
	if meta.Schema.Cols[0].Name == meta.Schema.Cols[1].Name {
		t.Fatalf("duplicate columns survived: %s", meta.Schema)
	}
	// Vector results materialize too (the SciDB-style INTO workflow).
	db.MustExec("CREATE TABLE xv2 (id INTEGER, vec VECTOR[2])")
	db.MustExec("INSERT INTO xv2 VALUES (1, zeros_vector(2) + 1)")
	db.MustExec("CREATE TABLE doubled AS SELECT id, vec * 2 AS v2 FROM xv2")
	res = mustQuery(t, db, "SELECT v2 FROM doubled")
	if !res.Rows[0][0].Vec.Equal(linalg.VectorOf(2, 2)) {
		t.Fatalf("vector CTAS %v", res.Rows[0][0])
	}
	// Name collisions with existing tables fail.
	if err := db.Exec("CREATE TABLE agg AS SELECT g FROM src"); err == nil {
		t.Fatal("CTAS over existing table accepted")
	}
}

// TestCreateTableAsDuplicateNames: a generated column name never takes one
// that another output column carries. Here a_1 stays the third column's name
// and the repeated a gets the next free suffix, so SELECT a_1 is unambiguous.
func TestCreateTableAsDuplicateNames(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE src (g INTEGER, v DOUBLE)")
	db.MustExec("INSERT INTO src VALUES (1, 2), (1, 3), (2, 10)")
	db.MustExec("CREATE TABLE u AS SELECT g AS a, v AS a, v + 100 AS a_1 FROM src")
	meta, _ := db.Catalog().Table("u")
	if got := meta.Schema.String(); got != "(a INTEGER, a_2 DOUBLE, a_1 DOUBLE)" {
		t.Fatalf("schema %s, want (a INTEGER, a_2 DOUBLE, a_1 DOUBLE)", got)
	}
	res := mustQuery(t, db, "SELECT a_1, a_2 FROM u ORDER BY a_1")
	if len(res.Rows) != 3 || res.Rows[0][0].D != 102 || res.Rows[0][1].D != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
}

// TestScalarSubqueries covers the standard-SQL form of the harness's
// "max of the minimums" pattern.
func TestScalarSubqueries(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE d (id INTEGER, dist DOUBLE)")
	db.MustExec("INSERT INTO d VALUES (1, 5), (2, 9), (3, 9), (4, 2)")
	res := mustQuery(t, db, `SELECT id, dist FROM d WHERE dist = (SELECT MAX(dist) FROM d) ORDER BY id`)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 2 || res.Rows[1][0].I != 3 {
		t.Fatalf("rows %v", res.Rows)
	}
	// In a projection expression, with arithmetic around it.
	res = mustQuery(t, db, `SELECT id, dist - (SELECT AVG(dist) FROM d) AS delta FROM d ORDER BY id`)
	if len(res.Rows) != 4 || res.Rows[0][1].D != 5-6.25 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Empty subquery result is NULL, so nothing matches equality.
	res = mustQuery(t, db, `SELECT id FROM d WHERE dist = (SELECT MAX(dist) FROM d WHERE id > 100)`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Multi-row subquery errors.
	if _, err := db.Query(`SELECT id FROM d WHERE dist = (SELECT dist FROM d)`); err == nil {
		t.Fatal("multi-row scalar subquery accepted")
	}
	// Multi-column subquery is a compile error.
	if _, err := db.Query(`SELECT id FROM d WHERE dist = (SELECT id, dist FROM d)`); err == nil {
		t.Fatal("multi-column scalar subquery accepted")
	}
	// Nested subqueries resolve recursively.
	res = mustQuery(t, db, `SELECT COUNT(*) FROM d
		WHERE dist > (SELECT MIN(dist) FROM d WHERE dist < (SELECT MAX(dist) FROM d))`)
	if res.Rows[0][0].I != 3 {
		t.Fatalf("nested subquery count %v", res.Rows)
	}
	// Works inside HAVING and with vector data too.
	db.MustExec("CREATE TABLE xv (id INTEGER, vec VECTOR[2])")
	db.MustExec("INSERT INTO xv VALUES (1, zeros_vector(2) + 1), (2, zeros_vector(2) + 5)")
	res = mustQuery(t, db, `SELECT id FROM xv
		WHERE inner_product(vec, vec) = (SELECT MAX(inner_product(x2.vec, x2.vec)) FROM xv AS x2)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("vector subquery rows %v", res.Rows)
	}
}

// TestPartitionByHashSkipsShuffles reproduces the paper's §2.1 scenario:
// a table pre-partitioned on the join key is not re-shuffled; only the
// other side moves. Groupings on the partition column also stay local.
func TestPartitionByHashSkipsShuffles(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE r (id INTEGER, v DOUBLE) PARTITION BY HASH (id)")
	db.MustExec("CREATE TABLE l (id INTEGER, w DOUBLE)")
	var lr, rr []value.Row
	for i := 0; i < 60; i++ {
		rr = append(rr, value.Row{value.Int(int64(i % 12)), value.Double(float64(i))})
		lr = append(lr, value.Row{value.Int(int64(i % 12)), value.Double(float64(2 * i))})
	}
	if err := db.LoadTable("r", rr); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("l", lr); err != nil {
		t.Fatal(err)
	}
	// Join on the partition key: only l shuffles (1 round).
	res := mustQuery(t, db, "SELECT l.id, SUM(l.w * r.v) FROM l, r WHERE l.id = r.id GROUP BY l.id")
	if len(res.Rows) != 12 {
		t.Fatalf("groups %d", len(res.Rows))
	}
	if res.Stats.ShuffleRounds != 1 {
		t.Fatalf("shuffle rounds = %d, want 1 (pre-partitioned side stays put)", res.Stats.ShuffleRounds)
	}
	// Grouping directly on the partition column: zero shuffles and no
	// partial-state movement.
	res = mustQuery(t, db, "SELECT id, SUM(v) FROM r GROUP BY id")
	if len(res.Rows) != 12 {
		t.Fatalf("groups %d", len(res.Rows))
	}
	if res.Stats.ShuffleRounds != 0 || res.Stats.TuplesShuffled != 0 {
		t.Fatalf("partition-aligned grouping moved data: %+v", res.Stats)
	}
	// Same query on the round-robin table needs the aggregate shuffle.
	res = mustQuery(t, db, "SELECT id, SUM(w) FROM l GROUP BY id")
	if res.Stats.TuplesShuffled == 0 {
		t.Fatalf("round-robin grouping should move partial states: %+v", res.Stats)
	}
	// Correctness: both joins return identical content to a round-robin copy.
	db.MustExec("CREATE TABLE r2 (id INTEGER, v DOUBLE)")
	if err := db.LoadTable("r2", rr); err != nil {
		t.Fatal(err)
	}
	a := mustQuery(t, db, "SELECT l.id, SUM(l.w * r.v) FROM l, r WHERE l.id = r.id GROUP BY l.id")
	b := mustQuery(t, db, "SELECT l.id, SUM(l.w * r2.v) FROM l, r2 WHERE l.id = r2.id GROUP BY l.id")
	ca, cb := canonicalRows(a.Rows), canonicalRows(b.Rows)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("partitioned join differs from round-robin join at %d: %s vs %s", i, ca[i], cb[i])
		}
	}
}

// TestJoinKeyErrorMovesNothing: a join key that fails to evaluate fails its
// input's stage before the exchange runs, so the statement returns the error
// and the database is charged no shuffle for it.
func TestJoinKeyErrorMovesNothing(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE l (a INTEGER, b INTEGER)")
	db.MustExec("CREATE TABLE r (c INTEGER)")
	var lr, rr []value.Row
	for i := 0; i < 40; i++ {
		lr = append(lr, value.Row{value.Int(int64(i)), value.Int(int64(i % 5))})
		rr = append(rr, value.Row{value.Int(int64(i % 9))})
	}
	if err := db.LoadTable("l", lr); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r", rr); err != nil {
		t.Fatal(err)
	}
	before := db.Cluster().Stats().Snapshot()
	_, err := db.Query("SELECT l.a, r.c FROM l, r WHERE l.a / l.b = r.c")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error = %v, want the key's division by zero", err)
	}
	after := db.Cluster().Stats().Snapshot()
	if after.ShuffleRounds != before.ShuffleRounds || after.TuplesShuffled != before.TuplesShuffled || after.BytesShuffled != before.BytesShuffled {
		t.Fatalf("a failed join key was charged an exchange: %d rounds, %d tuples, %d bytes",
			after.ShuffleRounds-before.ShuffleRounds, after.TuplesShuffled-before.TuplesShuffled, after.BytesShuffled-before.BytesShuffled)
	}
}

func TestPartitionByHashValidation(t *testing.T) {
	db := testDB(t)
	if err := db.Exec("CREATE TABLE t (a INTEGER) PARTITION BY HASH (nosuch)"); err == nil {
		t.Fatal("unknown partition column accepted")
	}
	if err := db.Exec("CREATE TABLE t (a INTEGER) PARTITION BY RANGE (a)"); err == nil {
		t.Fatal("unsupported partition scheme accepted")
	}
}

// TestConcurrentQueries hammers one database from several goroutines: the
// catalog/storage locks must keep reads consistent.
func TestConcurrentQueries(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (g INTEGER, v DOUBLE)")
	var rows []value.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, value.Row{value.Int(int64(i % 5)), value.Double(float64(i % 11))})
	}
	if err := db.LoadTable("t", rows); err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, db, "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
	wantRows := canonicalRows(want.Rows)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				res, err := db.Query("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
				if err != nil {
					errs <- err
					return
				}
				got := canonicalRows(res.Rows)
				if len(got) != len(wantRows) {
					errs <- fmt.Errorf("row count %d, want %d", len(got), len(wantRows))
					return
				}
				for i := range got {
					if got[i] != wantRows[i] {
						errs <- fmt.Errorf("row %d: %s != %s", i, got[i], wantRows[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER, b DOUBLE)")
	db.MustExec("INSERT INTO t VALUES (1, 2), (1, 3), (2, 9)")
	res, err := db.Run("EXPLAIN ANALYZE SELECT a, SUM(b) FROM t GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].S + "\n"
	}
	for _, want := range []string{"Aggregate", "-- executed: 2 rows", "aggregate "} {
		if !strings.Contains(joined, want) {
			t.Fatalf("explain analyze missing %q:\n%s", want, joined)
		}
	}
	// Plain EXPLAIN must not execute (no -- executed line).
	res, err = db.Run("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, "executed") {
			t.Fatal("plain EXPLAIN executed the query")
		}
	}
	// EXPLAIN ANALYZE of DDL is rejected.
	if _, err := db.Run("EXPLAIN ANALYZE CREATE TABLE z (a INTEGER)"); err == nil {
		t.Fatal("EXPLAIN ANALYZE of DDL accepted")
	}
}

// TestScalarSubqueryEveryPosition runs a scalar subquery in every slot a plan
// node has for an expression, and checks each result against the same query
// with the subquery's value written in as a literal. where names the plan
// line the subquery must sit on, so each case pins its position.
func TestScalarSubqueryEveryPosition(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE a (id INTEGER, g INTEGER, v DOUBLE)")
	db.MustExec("CREATE TABLE b (id INTEGER, w DOUBLE)")
	db.MustExec("CREATE TABLE k (n INTEGER)")
	for i := 0; i < 12; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d, %d, %d.5)", i, i%5, i))
		db.MustExec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, 10-i))
	}
	db.MustExec("INSERT INTO k VALUES (1), (2)")
	const sub = "(SELECT MAX(n) FROM k)"
	for _, c := range []struct{ name, sql, where string }{
		{"select item", "SELECT id, v * " + sub + " AS x FROM a ORDER BY id", "Project ["},
		{"where", "SELECT id FROM a WHERE g = " + sub + " ORDER BY id", "Filter "},
		{"hash-join residual", "SELECT a.id, b.id FROM a, b WHERE a.id = b.id AND a.v + b.w + a.id > 12 + " + sub + " ORDER BY a.id", "HashJoin "},
		{"cross-join residual", "SELECT a.id, b.id FROM a, b WHERE a.v < b.w - " + sub + " ORDER BY a.id, b.id", "CrossJoin"},
		{"group by key", "SELECT g / " + sub + " AS q, COUNT(*) AS c FROM a GROUP BY g / " + sub + " ORDER BY q", "group=[(#1:g / (subquery))]"},
		{"aggregate input", "SELECT g, SUM(v * " + sub + ") AS s FROM a GROUP BY g ORDER BY g", "aggs=[sum((#2:v * (subquery)))]"},
		{"having", "SELECT g, COUNT(*) AS c FROM a GROUP BY g HAVING COUNT(*) > " + sub + " ORDER BY g", "Filter "},
		{"nested", "SELECT id FROM a WHERE v > (SELECT MIN(w) FROM b WHERE w > " + sub + ") ORDER BY id", "Filter "},
	} {
		t.Run(c.name, func(t *testing.T) {
			text, err := db.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			placed := false
			for _, line := range strings.Split(text, "\n") {
				placed = placed || strings.Contains(line, c.where) && strings.Contains(line, "(subquery)")
			}
			if !placed {
				t.Fatalf("no %q line holds the subquery:\n%s", c.where, text)
			}
			got := mustQuery(t, db, c.sql)
			want := mustQuery(t, db, strings.ReplaceAll(c.sql, sub, "2"))
			if len(want.Rows) == 0 {
				t.Fatal("the literal query returns no rows")
			}
			if g, w := value.EncodeRows(got.Rows), value.EncodeRows(want.Rows); string(g) != string(w) {
				t.Fatalf("rows %v, want %v", got.Rows, want.Rows)
			}
		})
	}
}

// TestSelectDistinctRejected: DISTINCT is not implemented, so it must be a
// parse error naming GROUP BY rather than silently returning duplicates.
func TestSelectDistinctRejected(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (g INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1), (1), (2)")
	res, err := db.Query("SELECT DISTINCT g FROM t")
	if err == nil {
		t.Fatalf("SELECT DISTINCT accepted, returned %v", res.Rows)
	}
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("error %q does not name GROUP BY", err)
	}
	res = mustQuery(t, db, "SELECT g FROM t GROUP BY g ORDER BY g")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 2 {
		t.Fatalf("GROUP BY rows %v", res.Rows)
	}
}
