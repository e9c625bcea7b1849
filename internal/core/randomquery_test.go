package core

import (
	"fmt"
	"math/rand"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/opt"
	"relalg/internal/value"
)

// genQuery emits a random (but always valid) query over the integer-valued
// test tables: 1-3 joined relations, optional filters, optional grouping.
// All data is integral so float non-associativity cannot cause spurious
// mismatches.
func genQuery(r *rand.Rand) string {
	nRel := 1 + r.Intn(3)
	aliases := make([]string, nRel)
	from := ""
	for i := 0; i < nRel; i++ {
		aliases[i] = fmt.Sprintf("q%d", i)
		if i > 0 {
			from += ", "
		}
		table := []string{"ta", "tb"}[r.Intn(2)]
		from += table + " AS " + aliases[i]
	}
	var conjuncts []string
	// Join chains on id or grp.
	for i := 1; i < nRel; i++ {
		col := []string{"id", "grp"}[r.Intn(2)]
		conjuncts = append(conjuncts, fmt.Sprintf("%s.%s = %s.%s", aliases[i-1], col, aliases[i], col))
	}
	// Optional filters.
	if r.Intn(2) == 0 {
		a := aliases[r.Intn(nRel)]
		conjuncts = append(conjuncts, fmt.Sprintf("%s.v %s %d", a, []string{"<", ">", "<=", ">=", "<>"}[r.Intn(5)], r.Intn(7)))
	}
	where := ""
	if len(conjuncts) > 0 {
		where = " WHERE " + conjuncts[0]
		for _, c := range conjuncts[1:] {
			where += " AND " + c
		}
	}
	a0 := aliases[0]
	if r.Intn(2) == 0 {
		// Grouped form.
		agg := []string{"SUM", "MIN", "MAX", "COUNT"}[r.Intn(4)]
		arg := a0 + ".v"
		if agg == "COUNT" {
			arg = "*"
		}
		return fmt.Sprintf("SELECT %s.grp, %s(%s) FROM %s%s GROUP BY %s.grp", a0, agg, arg, from, where, a0)
	}
	return fmt.Sprintf("SELECT %s.id, %s.v + 1 FROM %s%s", a0, a0, from, where)
}

func loadRandomTables(t *testing.T, db *Database, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db.MustExec(`CREATE TABLE ta (id INTEGER, grp INTEGER, v DOUBLE)`)
	db.MustExec(`CREATE TABLE tb (id INTEGER, grp INTEGER, v DOUBLE)`)
	var ra, rb []value.Row
	for i := 0; i < 30; i++ {
		ra = append(ra, value.Row{value.Int(int64(r.Intn(20))), value.Int(int64(r.Intn(4))), value.Double(float64(r.Intn(9)))})
		rb = append(rb, value.Row{value.Int(int64(r.Intn(20))), value.Int(int64(r.Intn(4))), value.Double(float64(r.Intn(9)))})
	}
	if err := db.LoadTable("ta", ra); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("tb", rb); err != nil {
		t.Fatal(err)
	}
}

// TestRandomQueriesAgreeAcrossEngines generates random queries and checks
// that a single-partition engine, a multi-partition engine, and a
// no-optimization engine all return the same multiset of rows.
func TestRandomQueriesAgreeAcrossEngines(t *testing.T) {
	const dataSeed = 99
	mk := func(nodes, perNode int, opts opt.Options) *Database {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: nodes, PartitionsPerNode: perNode, SerializeShuffles: true}
		cfg.Optimizer = opts
		db := Open(cfg)
		loadRandomTables(t, db, dataSeed)
		return db
	}
	naive := opt.Options{SizeAwareCosting: false, EagerProjection: false, MaxDPRelations: 1}
	engines := map[string]*Database{
		"single":  mk(1, 1, opt.DefaultOptions()),
		"multi":   mk(3, 2, opt.DefaultOptions()),
		"no-opt":  mk(2, 2, naive),
		"unfused": nil, // created below with fusion disabled
	}
	cfgUnfused := DefaultConfig()
	cfgUnfused.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
	cfgUnfused.DisableAggFusion = true
	engines["unfused"] = Open(cfgUnfused)
	loadRandomTables(t, engines["unfused"], dataSeed)

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		q := genQuery(r)
		var baseline []string
		for name, db := range engines {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			rows := canonicalRows(res.Rows)
			if baseline == nil {
				baseline = rows
				continue
			}
			if len(rows) != len(baseline) {
				t.Fatalf("%s: %q: %d rows, want %d", name, q, len(rows), len(baseline))
			}
			for ri := range rows {
				if rows[ri] != baseline[ri] {
					t.Fatalf("%s: %q: row %d = %s, want %s", name, q, ri, rows[ri], baseline[ri])
				}
			}
		}
	}
}
