package exec_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"relalg/internal/core"
	"relalg/internal/exec"
	"relalg/internal/value"
)

// The windowed operators are pinned to testdata/row_executor_golden.tsv: the
// results of the row-at-a-time executor they replaced, recorded at the last
// commit that had one. The golden is the independent reference, so it is never
// regenerated from the executor under test. This is an external test package
// because the queries run through core, which imports exec.

// batchTestLoad fills db with the tables the batch-equivalence queries run
// over: numeric columns seeded with NaN, ±Inf, and -0 payloads, strings,
// integers spanning the float53 boundary, and vector cells, plus a pair of
// co-partitioned join tables.
func batchTestLoad(t *testing.T, db *core.Database) {
	t.Helper()
	db.MustExec("CREATE TABLE pts (g INTEGER, tag STRING, a INTEGER, b INTEGER, x DOUBLE, y DOUBLE)")
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25}
	rows := make([]value.Row, 700)
	for i := range rows {
		x := special[i%len(special)]
		y := float64(i%19) - 9
		a := int64(i % 23)
		if i%31 == 0 {
			a = int64(1)<<53 + int64(i) // exercise the lossy float compare
		}
		rows[i] = value.Row{
			value.Int(int64(i % 13)),
			value.String_(fmt.Sprintf("t%d", i%5)),
			value.Int(a),
			value.Int(int64(i%7) - 3),
			value.Double(x),
			value.Double(y),
		}
	}
	if err := db.LoadTable("pts", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE jl (id INTEGER, w DOUBLE, vec VECTOR[4]) PARTITION BY HASH (id)")
	db.MustExec("CREATE TABLE jr (id INTEGER, z DOUBLE) PARTITION BY HASH (id)")
	lrows := make([]value.Row, 500)
	for i := range lrows {
		lrows[i] = value.Row{
			value.Int(int64(i % 211)),
			value.Double(float64(i%17) * 0.5),
			core.VectorValue(float64(i%7), float64((i+1)%5), float64((i+2)%3), float64(i%11)),
		}
	}
	rrows := make([]value.Row, 300)
	for i := range rrows {
		rrows[i] = value.Row{value.Int(int64(i % 211)), value.Double(float64(i%29) - 14)}
	}
	if err := db.LoadTable("jl", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("jr", rrows); err != nil {
		t.Fatal(err)
	}
}

// batchEquivQueries exercises every vectorized operator: chained filters with
// integer division guarded by an earlier predicate, projection arithmetic,
// logic over NaN/Inf comparisons, equi-join build/probe with a residual,
// grouped and global aggregation, LIMIT inside a pipeline, and sorts. The last
// three are a grouped aggregate over a many-to-many join with more than 1024
// matches per probe window, a grouped aggregate over a cross join whose
// residual compares NaN/±Inf with the other side, and a bare cross-join
// projection whose residual leaves pair windows partly selected. The three
// after them pin join placement: one side co-partitioned on its key and the
// other not, a join against a single-partition aggregate, and a filtered
// self-join on a DOUBLE key with NaN, ±Inf and -0 lanes.
var batchEquivQueries = []string{
	"SELECT g, a + b AS s, x * 2.0 AS xx FROM pts WHERE y > -5 AND b <> 0 AND a / b > 1",
	"SELECT tag, -a AS na, NOT (x >= 0) AS nonneg FROM pts WHERE tag >= 't1' AND tag < 't4'",
	"SELECT COUNT(*) AS n, SUM(y) AS sy, MIN(g) AS mg FROM pts WHERE x = x OR y < 0",
	"SELECT g, COUNT(*) AS n, SUM(a) AS sa, AVG(y) AS ay FROM pts GROUP BY g",
	"SELECT tag, SUM(b * b) AS sq FROM pts WHERE a > 2 GROUP BY tag",
	"SELECT jl.id, jl.w + jr.z AS wz FROM jl, jr WHERE jl.id = jr.id AND jl.w > 1.0",
	"SELECT jl.id, COUNT(*) AS n, SUM(jr.z) AS sz FROM jl, jr WHERE jl.id = jr.id GROUP BY jl.id",
	"SELECT SUM(inner_product(jl.vec, jl.vec)) AS ip FROM jl",
	"SELECT g, x FROM pts WHERE y > 0 LIMIT 7",
	"SELECT g, y FROM pts WHERE g < 5 ORDER BY y, g LIMIT 20",
	"SELECT q.tag, p.b, COUNT(*) AS n, SUM(p.y / (q.b + 10)) AS s, MIN(q.x) AS mx FROM pts AS p, pts AS q WHERE p.g = q.g AND p.tag = 't1' AND p.a + q.b > 8 GROUP BY q.tag, p.b",
	"SELECT p.tag, COUNT(*) AS n, MIN(jr.z - p.x) AS m FROM pts AS p, jr WHERE p.g < 2 AND p.x < jr.z GROUP BY p.tag",
	"SELECT jl.id, p.g, inner_product(jl.vec, jl.vec) * p.y AS v, jl.w - p.x AS d FROM jl, pts AS p WHERE p.g = 5 AND jl.w > p.y",
	"SELECT jl.id, p.g, jl.w + p.y AS s, jl.vec FROM jl, pts AS p WHERE jl.id = p.a",
	"SELECT p.g, p.tag, p.y FROM pts AS p, (SELECT MAX(y) AS top FROM pts) AS mm WHERE p.y = mm.top",
	"SELECT p.g, q.g AS qg, p.x FROM pts AS p, pts AS q WHERE p.x = q.x AND p.g < 3 AND q.g > 10",
}

// batchTestDB opens a database with the batch-equivalence tables. paged
// stores them on disk in 1 KiB pages behind a 16 KiB buffer pool, so every
// partition reaches the executor as many page windows whose boundaries fall
// inside the operators' own windows.
func batchTestDB(t *testing.T, nodes, parts int, budget int64, paged bool) *core.Database {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster.Nodes = nodes
	cfg.Cluster.PartitionsPerNode = parts
	cfg.Cluster.MemoryBudgetBytes = budget
	if paged {
		cfg.DataDir = t.TempDir()
		cfg.PageBytes = 1024
		cfg.BufferPoolBytes = 16 << 10
	}
	db, err := core.OpenData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	batchTestLoad(t, db)
	return db
}

// goldenKey names one golden case.
func goldenKey(nodes, parts int, budget int64, q string) string {
	return fmt.Sprintf("%dx%d\t%d\t%s", nodes, parts, budget, q)
}

// loadGolden reads the golden: case key → SHA-256 of the result text.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/row_executor_golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, '\t')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[line[:i]] = line[i+1:]
	}
	return golden
}

// matchesGolden reports whether res equals, byte for byte through its hash
// (schema plus EncodeRows, so NaN payloads and signed zeros count), the row
// executor's recorded result for the same case.
func matchesGolden(t *testing.T, golden map[string]string, key string, res *core.Result) bool {
	t.Helper()
	want, ok := golden[key]
	if !ok {
		t.Fatalf("no golden entry for %q", key)
	}
	text := res.Schema.String() + "\n" + string(value.EncodeRows(res.Rows))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) == want
}

// TestBatchExecutorBitIdentical pins the windowed operators' core contract:
// for every query, cluster shape, memory budget and table store, every window
// size — including degenerate (1), odd (3, 1023), default (1024) and oversized
// (4096) windows — reproduces the row executor's golden result.
func TestBatchExecutorBitIdentical(t *testing.T) {
	golden := loadGolden(t)
	shapes := []struct{ nodes, parts int }{{1, 1}, {2, 2}, {1, 3}}
	budgets := []int64{0, 96 << 10}
	windows := []int{1, 3, 1023, 1024, 4096}
	if testing.Short() {
		shapes = shapes[1:2]
		windows = []int{3, 1024}
	}
	for _, paged := range []bool{false, true} {
		for _, sh := range shapes {
			for _, budget := range budgets {
				for _, w := range windows {
					exec.SetWindow(t, w)
					db := batchTestDB(t, sh.nodes, sh.parts, budget, paged)
					for _, q := range batchEquivQueries {
						res, err := db.Query(q)
						if err != nil {
							t.Fatalf("paged=%v window=%d %dx%d budget=%d %q: %v", paged, w, sh.nodes, sh.parts, budget, q, err)
						}
						if !matchesGolden(t, golden, goldenKey(sh.nodes, sh.parts, budget, q), res) {
							t.Errorf("paged=%v window=%d %dx%d budget=%d %q: result differs from the row executor's golden", paged, w, sh.nodes, sh.parts, budget, q)
						}
					}
				}
			}
		}
	}
}

// TestBatchExecutorSpillLegSpills asserts the tight-budget leg actually
// drives the out-of-core paths: the join+agg query must spill and still
// reproduce the golden the row executor recorded while spilling.
func TestBatchExecutorSpillLegSpills(t *testing.T) {
	const budget = 8 << 10
	const q = "SELECT jl.id, COUNT(*) AS n, SUM(jr.z) AS sz FROM jl, jr WHERE jl.id = jr.id GROUP BY jl.id"
	golden := loadGolden(t)
	for _, w := range []int{1023, 1024} {
		exec.SetWindow(t, w)
		res, err := batchTestDB(t, 2, 2, budget, false).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SpillEvents == 0 {
			t.Fatalf("window=%d: no spill at budget %d", w, budget)
		}
		if !matchesGolden(t, golden, goldenKey(2, 2, budget, q), res) {
			t.Fatalf("window=%d: spilled result differs from the row executor's spilled golden", w)
		}
	}
}

// TestBatchLimitChargesOnlyEmitted pins LIMIT over a fused pipeline: each
// partition stops producing at the limit, so the pipeline is charged at most
// N tuples per partition (not the 700 rows that pass the filter) and the LIMIT
// itself N more for the rows it gathers; the visible rows are the golden's.
func TestBatchLimitChargesOnlyEmitted(t *testing.T) {
	const (
		q          = "SELECT g, y FROM pts WHERE y > -100 LIMIT 3"
		n          = 3
		partitions = 2 * 2
	)
	res, err := batchTestDB(t, 2, 2, 0, false).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesGolden(t, loadGolden(t), goldenKey(2, 2, 0, q), res) {
		t.Fatal("LIMIT rows differ from the row executor's golden")
	}
	if got := res.Stats.TuplesProduced; got > n*partitions+n {
		t.Fatalf("LIMIT %d over %d partitions charged %d tuples, want <= %d (discarded rows must not be charged)",
			n, partitions, got, n*partitions+n)
	}
}

// TestJoinPlacementTraffic pins what a join moves for each placement of its
// inputs on a 2×2 cluster. A side moves unless it is already hash-placed on
// its own join keys, or both sides are single-partition; a single-partition
// side facing a partitioned one always moves. The counts were recorded at
// commit 5ff88e4, which materialized each input before shuffling it row by
// row; they include the aggregates' partial-state moves, which are not join
// traffic but are the same on both sides of that change.
func TestJoinPlacementTraffic(t *testing.T) {
	cases := []struct {
		name, q               string
		rounds, tuples, bytes int64
	}{
		{"neither side keyed", "SELECT jl.id, jr.id AS rid FROM jl, jr WHERE jl.w = jr.z", 2, 561, 12414},
		{"one side keyed", "SELECT jl.id, p.g, jl.w + p.y AS s, jl.vec FROM jl, pts AS p WHERE jl.id = p.a", 1, 525, 16323},
		{"co-partitioned", "SELECT jl.id, jl.w + jr.z AS wz, jl.vec FROM jl, jr WHERE jl.id = jr.id", 0, 0, 0},
		{"one side single", "SELECT p.g, p.tag, p.y FROM pts AS p, (SELECT MAX(y) AS top FROM pts) AS mm WHERE p.y = mm.top", 2, 531, 15375},
		{"both sides single", "SELECT a.m, b.m AS bm FROM (SELECT MIN(g) AS m FROM pts) AS a, (SELECT MIN(id) AS m FROM jr) AS b WHERE a.m = b.m", 0, 6, 78},
	}
	db := batchTestDB(t, 2, 2, 0, false)
	for _, c := range cases {
		res, err := db.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := res.Stats
		if s.ShuffleRounds != c.rounds || s.TuplesShuffled != c.tuples || s.BytesShuffled != c.bytes {
			t.Errorf("%s: %d rounds, %d tuples, %d bytes shuffled; want %d, %d, %d",
				c.name, s.ShuffleRounds, s.TuplesShuffled, s.BytesShuffled, c.rounds, c.tuples, c.bytes)
		}
	}
}
