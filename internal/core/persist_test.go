package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/value"
)

// persistCfg is a small cluster with persistent storage: 4 partitions so
// tests stay fast, a tiny page size so modest tables span many pages, and a
// buffer pool far smaller than the tables the pool-bound tests load.
func persistCfg(dir string, poolBytes int64) Config {
	cfg := DefaultConfig()
	cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
	cfg.DataDir = dir
	cfg.PageBytes = 1024
	cfg.BufferPoolBytes = poolBytes
	return cfg
}

// snapshotTables captures every table's exact content (EncodeRows over the
// partitions in order) keyed by name.
func snapshotTables(t *testing.T, db *Database) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range db.Catalog().TableNames() {
		tb, err := db.OpenTable(name)
		if err != nil {
			t.Fatalf("table %q: %v", name, err)
		}
		var all []value.Row
		for part := 0; part < tb.Parts(); part++ {
			if err := tb.ScanPart(part, func(rows []value.Row) error {
				all = append(all, rows...)
				return nil
			}); err != nil {
				t.Fatalf("table %q: %v", name, err)
			}
		}
		out[name] = value.EncodeRows(all)
	}
	return out
}

func TestPersistentRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenData(persistCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE s (id INTEGER, name STRING, flag BOOLEAN, x DOUBLE)")
	db.MustExec("CREATE TABLE hp (k INTEGER, v DOUBLE) PARTITION BY HASH (k)")
	db.MustExec("CREATE TABLE vm (id INTEGER, vec VECTOR[], mat MATRIX[2][3])")
	db.MustExec("CREATE TABLE empty (id INTEGER)")

	var srows []value.Row
	for i := 0; i < 200; i++ {
		srows = append(srows, value.Row{
			value.Int(int64(i)), value.String_(strings.Repeat("s", i%7)),
			value.Bool(i%3 == 0), value.Double(float64(i) / 3),
		})
	}
	if err := db.LoadTable("s", srows); err != nil {
		t.Fatal(err)
	}
	var hrows []value.Row
	for i := 0; i < 100; i++ {
		hrows = append(hrows, value.Row{value.Int(int64(i % 17)), value.Double(float64(i))})
	}
	if err := db.LoadTable("hp", hrows); err != nil {
		t.Fatal(err)
	}
	// Vector/matrix cells with the float patterns the page codec must keep
	// bit-exact: NaN, infinities, negative zero, denormals, zero runs.
	mat, err := MatrixValue([][]float64{
		{math.NaN(), math.Inf(1), 0}, {math.Copysign(0, -1), 5e-324, math.Inf(-1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var vrows []value.Row
	for i := 0; i < 50; i++ {
		vrows = append(vrows, value.Row{
			value.Int(int64(i)),
			VectorValue(0, 0, 0, 0, float64(i), math.NaN(), 0, 0),
			mat,
		})
	}
	if err := db.LoadTable("vm", vrows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO s VALUES (1000, 'late', TRUE, 2.5)")
	db.MustExec("CREATE TABLE dropme (id INTEGER)")
	db.MustExec("DROP TABLE dropme")

	want := snapshotTables(t, db)
	wantSum := mustQuery(t, db, "SELECT SUM(x) FROM s WHERE id < 100")
	wantDistinct := db.Catalog()
	kDistinct := 0.0
	if meta, ok := wantDistinct.Table("hp"); ok {
		kDistinct = meta.Distinct("k")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenData(persistCfg(dir, 0))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = re.Close() }()
	got := snapshotTables(t, re)
	if len(got) != len(want) {
		t.Fatalf("reopened with %d tables, want %d", len(got), len(want))
	}
	for name, enc := range want {
		if !bytes.Equal(got[name], enc) {
			t.Fatalf("table %q differs after restart", name)
		}
	}
	// Catalog state survives: partition column, row counts, statistics.
	meta, ok := re.Catalog().Table("hp")
	if !ok || meta.PartitionCol != "k" {
		t.Fatalf("hp lost its partition column after restart: %+v", meta)
	}
	if meta.RowCount() != 100 {
		t.Fatalf("hp row count %d after restart, want 100", meta.RowCount())
	}
	if d := meta.Distinct("k"); d != kDistinct {
		t.Fatalf("hp distinct(k) %v after restart, want %v", d, kDistinct)
	}
	gotSum := mustQuery(t, re, "SELECT SUM(x) FROM s WHERE id < 100")
	if !bytes.Equal(value.EncodeRows(gotSum.Rows), value.EncodeRows(wantSum.Rows)) {
		t.Fatal("aggregate over reopened table differs")
	}
	// Appends keep working after a restart, and round-robin placement
	// resumes where the previous process left off.
	re.MustExec("INSERT INTO s VALUES (1001, 'post', FALSE, 9.5)")
	res := mustQuery(t, re, "SELECT COUNT(*) FROM s")
	if res.Rows[0][0].I != 202 {
		t.Fatalf("COUNT after post-restart insert = %v, want 202", res.Rows[0][0])
	}
}

// TestPersistentMatchesInMemory runs the same workload against a persistent
// and an in-memory database and requires identical results.
func TestPersistentMatchesInMemory(t *testing.T) {
	queries := []string{
		"SELECT SUM(v) FROM r WHERE k > 20",
		"SELECT k, COUNT(*) FROM r WHERE v < 150 GROUP BY k ORDER BY k",
		"SELECT k, v FROM r WHERE k = 7 ORDER BY v",
		"SELECT COUNT(*) FROM r",
	}
	// r is dealt round-robin and h is hash-placed on k; each is loaded in
	// two batches, so the round-robin cursor carries across loads.
	load := func(db *Database) {
		db.MustExec("CREATE TABLE r (k INTEGER, v DOUBLE)")
		db.MustExec("CREATE TABLE h (k INTEGER, v DOUBLE) PARTITION BY HASH (k)")
		for _, batch := range [][2]int{{0, 301}, {301, 500}} {
			var rows []value.Row
			for i := batch[0]; i < batch[1]; i++ {
				rows = append(rows, value.Row{value.Int(int64(i % 40)), value.Double(float64(i))})
			}
			for _, name := range []string{"r", "h"} {
				if err := db.LoadTable(name, rows); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mem := Open(Config{Cluster: cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}, Optimizer: DefaultConfig().Optimizer})
	load(mem)
	db, err := OpenData(persistCfg(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	load(db)
	for _, q := range append(queries, "SELECT k, SUM(v) FROM h GROUP BY k ORDER BY k") {
		want := mustQuery(t, mem, q)
		got := mustQuery(t, db, q)
		if !bytes.Equal(value.EncodeRows(got.Rows), value.EncodeRows(want.Rows)) {
			t.Errorf("%s: persistent result differs from in-memory", q)
		}
	}
	// Both stores place every row on the same partition, in the same order.
	for _, name := range []string{"r", "h"} {
		want, got := partitionRows(t, mem, name), partitionRows(t, db, name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d partitions stored, want %d", name, len(got), len(want))
		}
		for p := range want {
			if !bytes.Equal(value.EncodeRows(got[p]), value.EncodeRows(want[p])) {
				t.Errorf("%s partition %d: stored rows differ from in-memory", name, p)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// partitionRows scans each partition of a table through OpenTable.
func partitionRows(t *testing.T, db *Database, name string) [][]value.Row {
	t.Helper()
	tb, err := db.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]value.Row, tb.Parts())
	for p := range out {
		if err := tb.ScanPart(p, func(rows []value.Row) error {
			out[p] = append(out[p], rows...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestScanBoundedByBufferPool loads a table several times larger than the
// buffer pool and requires that queries stream it: results match an
// in-memory database's byte for byte, survive a restart under the same pool,
// and the pool's peak usage never exceeds its budget. A LIMIT over the
// reopened table stops reading each partition after its first few pages.
func TestScanBoundedByBufferPool(t *testing.T) {
	const poolBytes = 16 << 10 // 16 pages of 1 KiB for a ~300-page table
	const groupQuery = "SELECT grp, COUNT(*) AS n, SUM(inner_product(vec, vec)) AS s " +
		"FROM big WHERE id >= 0 GROUP BY grp ORDER BY grp"
	load := func(db *Database) {
		db.MustExec("CREATE TABLE big (id INTEGER, grp INTEGER, vec VECTOR[])")
		var rows []value.Row
		for i := 0; i < 600; i++ {
			ent := make([]float64, 48)
			for j := range ent {
				ent[j] = float64(i*48 + j)
			}
			rows = append(rows, value.Row{value.Int(int64(i)), value.Int(int64(i % 10)), VectorValue(ent...)})
		}
		if err := db.LoadTable("big", rows); err != nil {
			t.Fatal(err)
		}
	}
	mem := Open(persistCfg("", 0))
	load(mem)
	want := value.EncodeRows(mustQuery(t, mem, groupQuery).Rows)

	dir := t.TempDir()
	db, err := OpenData(persistCfg(dir, poolBytes))
	if err != nil {
		t.Fatal(err)
	}
	load(db)
	res := mustQuery(t, db, "SELECT COUNT(*) FROM big WHERE id >= 100")
	if res.Rows[0][0].I != 500 {
		t.Fatalf("COUNT = %v, want 500", res.Rows[0][0])
	}
	if got := value.EncodeRows(mustQuery(t, db, groupQuery).Rows); !bytes.Equal(got, want) {
		t.Fatal("grouped aggregate over the paged table differs from in-memory")
	}
	st := db.Store().PoolStats()
	if st.PeakBytes > poolBytes {
		t.Fatalf("peak pool usage %d exceeds budget %d", st.PeakBytes, poolBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("table larger than the pool produced no evictions")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenData(persistCfg(dir, poolBytes))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = re.Close() }()
	const partitions = 4
	if res := mustQuery(t, re, "SELECT id FROM big WHERE id >= 0 LIMIT 5"); len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	if m := re.Store().PoolStats().Misses; m > 3*partitions {
		t.Fatalf("LIMIT 5 over a cold pool missed %d pages, want <= %d: the scan kept reading", m, 3*partitions)
	}
	if got := value.EncodeRows(mustQuery(t, re, groupQuery).Rows); !bytes.Equal(got, want) {
		t.Fatal("grouped aggregate differs after restart")
	}
}

// TestRestartUnderDifferentLayout reopens a data directory under a cluster
// with a different partition count: scans must re-spread and produce the
// same query results.
func TestRestartUnderDifferentLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenData(persistCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE r (k INTEGER, v DOUBLE)")
	var rows []value.Row
	for i := 0; i < 120; i++ {
		rows = append(rows, value.Row{value.Int(int64(i % 10)), value.Double(float64(i))})
	}
	if err := db.LoadTable("r", rows); err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, db, "SELECT k, SUM(v) FROM r GROUP BY k ORDER BY k")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := persistCfg(dir, 0)
	cfg.Cluster = cluster.Config{Nodes: 3, PartitionsPerNode: 2, SerializeShuffles: true}
	re, err := OpenData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	got := mustQuery(t, re, "SELECT k, SUM(v) FROM r GROUP BY k ORDER BY k")
	if !bytes.Equal(value.EncodeRows(got.Rows), value.EncodeRows(want.Rows)) {
		t.Fatal("results differ after reopening under a different cluster layout")
	}
}

// TestOpenDataFailFast covers the fail-fast contract of persistent opens:
// double-open of a locked directory and page-size disagreements are errors,
// and Open (the panicking wrapper) stays usable for in-memory configs.
func TestOpenDataFailFast(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenData(persistCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenData(persistCfg(dir, 0)); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("double open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := persistCfg(dir, 0)
	cfg.PageBytes = 2048
	if _, err := OpenData(cfg); err == nil || !strings.Contains(err.Error(), "page size") {
		t.Fatalf("page size mismatch: %v", err)
	}
}
