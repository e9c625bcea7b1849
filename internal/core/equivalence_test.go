package core

import (
	"fmt"
	"sort"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/opt"
	"relalg/internal/value"
)

// TestOptimizerResultEquivalence runs a battery of queries under four
// optimizer configurations (full, size-blind, no eager projection, both off)
// and requires identical result multisets: the optimizer may change plans,
// never answers.
func TestOptimizerResultEquivalence(t *testing.T) {
	configs := map[string]opt.Options{
		"full":     opt.DefaultOptions(),
		"blind":    {SizeAwareCosting: false, EagerProjection: true, MaxDPRelations: 10},
		"no-eager": {SizeAwareCosting: true, EagerProjection: false, MaxDPRelations: 10},
		"neither":  {SizeAwareCosting: false, EagerProjection: false, MaxDPRelations: 10},
		"greedy":   {SizeAwareCosting: true, EagerProjection: true, MaxDPRelations: 1},
	}

	queries := []string{
		`SELECT a.id, a.v + b.v AS s FROM ta AS a, tb AS b WHERE a.id = b.id`,
		`SELECT a.grp, SUM(a.v * b.v), COUNT(*) FROM ta AS a, tb AS b WHERE a.id = b.id GROUP BY a.grp`,
		`SELECT a.id FROM ta AS a, tb AS b, tc AS c WHERE a.id = b.id AND b.id = c.id`,
		`SELECT a.grp, MIN(b.v), MAX(b.v) FROM ta AS a, tb AS b WHERE a.grp = b.grp GROUP BY a.grp`,
		`SELECT SUM(outer_product(x.vec, x.vec)) FROM tv AS x`,
		`SELECT x1.id, inner_product(x1.vec, x2.vec) AS ip FROM tv AS x1, tv AS x2 WHERE x1.id <> x2.id AND x1.id < 3`,
		`SELECT a.grp, COUNT(*) FROM ta AS a WHERE a.v > 0.2 GROUP BY a.grp HAVING COUNT(*) > 1`,
		`SELECT a.id, b.id FROM ta AS a, tb AS b WHERE a.v = b.v`,
	}

	results := map[string][][]string{}
	for name, opts := range configs {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
		cfg.Optimizer = opts
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		var all [][]string
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			all = append(all, canonicalRows(res.Rows))
		}
		results[name] = all
	}

	base := results["full"]
	for name, got := range results {
		for qi := range base {
			if len(got[qi]) != len(base[qi]) {
				t.Fatalf("%s: query %d row count %d, want %d", name, qi, len(got[qi]), len(base[qi]))
			}
			for ri := range base[qi] {
				if got[qi][ri] != base[qi][ri] {
					t.Fatalf("%s: query %d row %d:\n got %s\nwant %s", name, qi, ri, got[qi][ri], base[qi][ri])
				}
			}
		}
	}
}

func loadEquivalenceTables(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec(`CREATE TABLE ta (id INTEGER, grp INTEGER, v DOUBLE)`)
	db.MustExec(`CREATE TABLE tb (id INTEGER, grp INTEGER, v DOUBLE)`)
	db.MustExec(`CREATE TABLE tc (id INTEGER)`)
	db.MustExec(`CREATE TABLE tv (id INTEGER, vec VECTOR[4])`)
	// All data is small-integer valued so every sum is exact in float64:
	// the tests compare formatted values across plans whose merge orders
	// differ, and non-associativity of float addition must not bite.
	var ra, rb, rc, rv []value.Row
	for i := 0; i < 40; i++ {
		ra = append(ra, value.Row{value.Int(int64(i)), value.Int(int64(i % 4)), value.Double(float64(i % 7))})
		rb = append(rb, value.Row{value.Int(int64(i + 10)), value.Int(int64(i % 3)), value.Double(float64(i % 5))})
		if i%2 == 0 {
			rc = append(rc, value.Row{value.Int(int64(i))})
		}
	}
	for i := 0; i < 8; i++ {
		vec := make([]float64, 4)
		for j := range vec {
			vec[j] = float64((i*(j+2))%9) - 4
		}
		rv = append(rv, value.Row{value.Int(int64(i)), VectorValue(vec...)})
	}
	for name, rows := range map[string][]value.Row{"ta": ra, "tb": rb, "tc": rc, "tv": rv} {
		if err := db.LoadTable(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// canonicalRows renders rows as sorted strings for order-insensitive
// comparison.
func canonicalRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

// TestSerializationDoesNotChangeResults runs the same queries with and
// without shuffle serialization: the A3 ablation must be performance-only.
func TestSerializationDoesNotChangeResults(t *testing.T) {
	var versions [][][]string
	for _, serialize := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: serialize}
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		var all [][]string
		for _, q := range []string{
			`SELECT a.id, b.v FROM ta AS a, tb AS b WHERE a.id = b.id`,
			`SELECT grp, SUM(v) FROM ta GROUP BY grp`,
			`SELECT SUM(outer_product(vec, vec)) FROM tv`,
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, canonicalRows(res.Rows))
		}
		versions = append(versions, all)
	}
	for qi := range versions[0] {
		if len(versions[0][qi]) != len(versions[1][qi]) {
			t.Fatalf("query %d row counts differ", qi)
		}
		for ri := range versions[0][qi] {
			if versions[0][qi][ri] != versions[1][qi][ri] {
				t.Fatalf("query %d row %d differs between serialization modes", qi, ri)
			}
		}
	}
}

// TestClusterShapeInvariance: the same query on different cluster shapes
// (1×1, 2×2, 5×3) returns identical results — partitioning is invisible.
func TestClusterShapeInvariance(t *testing.T) {
	shapes := [][2]int{{1, 1}, {2, 2}, {5, 3}}
	var versions [][]string
	for _, s := range shapes {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: s[0], PartitionsPerNode: s[1], SerializeShuffles: true}
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		res, err := db.Query(`SELECT a.grp, SUM(a.v * b.v), COUNT(*)
			FROM ta AS a, tb AS b WHERE a.id = b.id GROUP BY a.grp`)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, canonicalRows(res.Rows))
	}
	for i := 1; i < len(versions); i++ {
		if len(versions[i]) != len(versions[0]) {
			t.Fatalf("shape %v: row count %d, want %d", shapes[i], len(versions[i]), len(versions[0]))
		}
		for ri := range versions[0] {
			if versions[i][ri] != versions[0][ri] {
				t.Fatalf("shape %v row %d: %s != %s", shapes[i], ri, versions[i][ri], versions[0][ri])
			}
		}
	}
}
