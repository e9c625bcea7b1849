package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// spillTestDB builds a database with the given memory budget and the join +
// aggregate working set loaded: two tables of vector rows whose join fans out
// enough to be the memory hog.
func spillTestDB(t *testing.T, budget int64, maxTuples int64) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	cfg.Cluster.MemoryBudgetBytes = budget
	cfg.Cluster.MaxIntermediateTuples = maxTuples
	db := Open(cfg)
	loadSpillTables(t, db)
	return db
}

// loadSpillTables creates and fills the l/r join tables shared by the spill
// and fault test suites.
func loadSpillTables(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec("CREATE TABLE l (id INTEGER, grp INTEGER, v VECTOR[8])")
	db.MustExec("CREATE TABLE r (id INTEGER, v VECTOR[8])")
	// Integer-valued entries keep inner_product sums exact, so the spilled
	// plan's different accumulation grouping cannot perturb the result.
	rng := rand.New(rand.NewSource(7))
	vec := func() value.Value {
		entries := make([]float64, 8)
		for i := range entries {
			entries[i] = float64(rng.Intn(9) - 4)
		}
		return VectorValue(entries...)
	}
	const n = 600
	lrows := make([]value.Row, n)
	rrows := make([]value.Row, n/2)
	for i := range lrows {
		lrows[i] = value.Row{value.Int(int64(i % 150)), value.Int(int64(i % 10)), vec()}
	}
	for i := range rrows {
		rrows[i] = value.Row{value.Int(int64(i % 150)), vec()}
	}
	if err := db.LoadTable("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r", rrows); err != nil {
		t.Fatal(err)
	}
}

const spillQuery = `SELECT l.grp, COUNT(*) AS n, SUM(inner_product(l.v, r.v)) AS s
FROM l, r WHERE l.id = r.id GROUP BY l.grp ORDER BY l.grp`

func spillDirs(t *testing.T) map[string]bool {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), spill.DirPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, m := range matches {
		set[m] = true
	}
	return set
}

// TestSpillQueryCompletesUnderBudget is the subsystem's acceptance test: a
// join+aggregate whose working set exceeds the memory budget completes with
// results identical to the unlimited run and leaves no temp files behind. It
// runs at a budget that spills lightly and one that spills heavily; the
// heavy one must report spill activity.
func TestSpillQueryCompletesUnderBudget(t *testing.T) {
	baseline := mustQuery(t, spillTestDB(t, 0, 0), spillQuery)
	if len(baseline.Rows) != 10 {
		t.Fatalf("baseline groups = %d, want 10", len(baseline.Rows))
	}
	if baseline.Stats.SpillEvents != 0 || baseline.Stats.BytesSpilled != 0 {
		t.Fatalf("unlimited run spilled: %+v", baseline.Stats)
	}

	for _, budget := range []int64{16 << 10, 8 << 10} {
		before := spillDirs(t)
		res := mustQuery(t, spillTestDB(t, budget, 0), spillQuery)

		if budget == 8<<10 && (res.Stats.SpillEvents == 0 || res.Stats.BytesSpilled == 0) {
			t.Fatalf("8KB budget run reported no spilling: %+v", res.Stats)
		}
		if len(res.Rows) != len(baseline.Rows) {
			t.Fatalf("budget %d: rows = %d, want %d", budget, len(res.Rows), len(baseline.Rows))
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !res.Rows[i][j].Equal(baseline.Rows[i][j]) {
					t.Fatalf("budget %d: row %d col %d: budgeted %v != unlimited %v",
						budget, i, j, res.Rows[i][j], baseline.Rows[i][j])
				}
			}
		}
		// Every temp directory this query created is gone again.
		after := spillDirs(t)
		for d := range after {
			if !before[d] {
				t.Fatalf("budget %d: temp dir %s leaked", budget, d)
			}
		}
	}
}

// TestSpillBeatsTupleBudget reproduces the paper's Fail-vs-complete contrast
// in miniature: with a tuple budget that aborts the strictly-in-memory plan,
// adding a byte budget lets the same query spill — queries degrade to disk
// instead of dying.
func TestSpillBeatsTupleBudget(t *testing.T) {
	// Tuple budget low enough that the join's ~1200 matches abort it.
	_, err := spillTestDB(t, 0, 1000).Query(spillQuery)
	if !errors.Is(err, cluster.ErrResourceExhausted) {
		t.Fatalf("in-memory run error = %v, want ErrResourceExhausted", err)
	}

	// The byte budget governs operator state, not the tuple budget — the
	// spilling run still charges the same tuples, so lift the tuple cap and
	// squeeze the bytes instead: the query must complete.
	res := mustQuery(t, spillTestDB(t, 8<<10, 0), spillQuery)
	if res.Stats.SpillEvents == 0 {
		t.Fatal("8KB budget run reported no spilling")
	}
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(res.Rows))
	}
}

// TestSpillStatsString: spill counters render in the snapshot only when
// something actually spilled, keeping unlimited-run output unchanged.
func TestSpillStatsString(t *testing.T) {
	res := mustQuery(t, spillTestDB(t, 0, 0), spillQuery)
	if s := res.Stats.String(); len(s) == 0 || containsSpill(s) {
		t.Fatalf("unlimited stats string mentions spilling: %q", s)
	}
	res = mustQuery(t, spillTestDB(t, 8<<10, 0), spillQuery)
	if s := res.Stats.String(); !containsSpill(s) {
		t.Fatalf("budgeted stats string lacks spill counters: %q", s)
	}
}

func containsSpill(s string) bool {
	for i := 0; i+5 <= len(s); i++ {
		if s[i:i+5] == "spill" {
			return true
		}
	}
	return false
}

// TestSpillSubqueryShared: subqueries run under the same manager; a budgeted
// scalar-subquery query completes and cleans up.
func TestSpillSubqueryShared(t *testing.T) {
	db := spillTestDB(t, 8<<10, 0)
	res := mustQuery(t, db,
		`SELECT COUNT(*) AS c FROM l WHERE l.grp < (SELECT COUNT(*) FROM r) / 40`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if fmt.Sprint(res.Rows[0][0].I) == "" {
		t.Fatal("unreachable")
	}
}
