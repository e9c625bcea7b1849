package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/value"
)

// concurrentTestDB loads the tables the concurrency tests query.
func concurrentTestDB(t *testing.T) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	db := Open(cfg)
	db.MustExec("CREATE TABLE pts (g INTEGER, v DOUBLE)")
	rows := make([]value.Row, 1200)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i % 53)), value.Double(float64(i) * 0.25)}
	}
	if err := db.LoadTable("pts", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE vecs (id INTEGER, vec VECTOR[4])")
	vrows := make([]value.Row, 40)
	for i := range vrows {
		vrows[i] = value.Row{value.Int(int64(i)), VectorValue(
			float64(i%7), float64((i+1)%5), float64((i+2)%3), float64(i%11))}
	}
	if err := db.LoadTable("vecs", vrows); err != nil {
		t.Fatal(err)
	}
	return db
}

// resultText renders a result's rows via EncodeRows so the comparison is
// bit-exact, not just print-equal.
func resultText(res *Result) string {
	return res.Schema.String() + "\n" + string(value.EncodeRows(res.Rows))
}

// TestConcurrentMixedQueries drives many goroutines through db.Query on one
// shared Database: every caller must get results bit-identical to the serial
// run, with no data races (the gate runs this package under -race).
func TestConcurrentMixedQueries(t *testing.T) {
	db := concurrentTestDB(t)
	queries := []string{
		"SELECT g, SUM(v) AS total FROM pts GROUP BY g ORDER BY g",
		"SELECT COUNT(*) FROM pts WHERE v > 100",
		"SELECT SUM(outer_product(vec, vec)) FROM vecs",
		"SELECT p.g, COUNT(*) FROM pts p, vecs w WHERE p.g = w.id GROUP BY p.g ORDER BY p.g",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want[i] = resultText(res)
	}

	const callers = 8
	const rounds = 3
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the starting query so callers overlap on
				// different statements.
				for k := 0; k < len(queries); k++ {
					i := (c + k) % len(queries)
					res, err := db.Query(queries[i])
					if err != nil {
						errs <- fmt.Errorf("caller %d %q: %w", c, queries[i], err)
						return
					}
					if got := resultText(res); got != want[i] {
						errs <- fmt.Errorf("caller %d %q: results differ from serial run", c, queries[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentStatsMatchSerial: every statement counts on its own view of
// the cluster, so a statement's Result.Stats under 8 concurrent callers equal
// its serial stats exactly, and the database's cumulative counters grow by
// exactly the sum of the statements' own.
func TestConcurrentStatsMatchSerial(t *testing.T) {
	db := concurrentTestDB(t)
	queries := []string{
		"SELECT g, SUM(v) AS total FROM pts GROUP BY g ORDER BY g",
		"SELECT COUNT(*) FROM pts WHERE v > 100",
		"SELECT g, v * 2 FROM pts WHERE v < 50",
		"SELECT p.g, COUNT(*) FROM pts p, vecs w WHERE p.g = w.id GROUP BY p.g ORDER BY p.g",
		"SELECT a.id, MIN(inner_product(a.vec, b.vec)) FROM vecs a, vecs b WHERE a.id <> b.id GROUP BY a.id",
	}
	want := make([]cluster.StatsSnapshot, len(queries))
	var produced int64
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want[i] = res.Stats
		produced += res.Stats.TuplesProduced
	}

	const callers = 8
	before := db.Cluster().Stats().Snapshot()
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queries {
				i := (c + k) % len(queries)
				res, err := db.Query(queries[i])
				if err != nil {
					errs <- fmt.Errorf("caller %d %q: %w", c, queries[i], err)
					return
				}
				if res.Stats != want[i] {
					errs <- fmt.Errorf("caller %d %q: stats %+v, serial %+v", c, queries[i], res.Stats, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := db.Cluster().Stats().Snapshot().TuplesProduced - before.TuplesProduced; got != callers*produced {
		t.Errorf("cumulative TuplesProduced grew by %d, want %d", got, callers*produced)
	}
}

// TestInsertWhileSelecting runs INSERTs and aggregates on one in-memory table
// at once. Each scan reads a snapshot of the partition slices, so the -race
// gate sees no data race, and every SUM is a whole number of inserts that
// never goes backwards.
func TestInsertWhileSelecting(t *testing.T) {
	db := Open(DefaultConfig())
	db.MustExec("CREATE TABLE ev (id INTEGER, w DOUBLE)")
	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := db.Exec("INSERT INTO ev VALUES (1, 3.0)"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	last := 0.0
	for i := 0; i < rounds; i++ {
		res, err := db.Query("SELECT SUM(w) FROM ev")
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		if v := res.Rows[0][0]; !v.IsNull() {
			sum, _ = v.AsDouble()
		}
		if math.Mod(sum, 3) != 0 || sum < last {
			t.Fatalf("read %d: SUM = %v after %v, want a non-decreasing multiple of 3", i, sum, last)
		}
		last = sum
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
