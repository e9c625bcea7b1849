package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestTuplesProducedPinned pins the exact intermediate tuples each operator
// kind charges, so a change to where or how the budget is charged cannot move
// a single count unnoticed.
func TestTuplesProducedPinned(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE t (a INTEGER, b DOUBLE)")
	db.MustExec("CREATE TABLE u (a INTEGER, c DOUBLE)")
	db.MustExec("CREATE TABLE e (a INTEGER, b DOUBLE)")
	var tv, uv []string
	for i := 0; i < 40; i++ {
		tv = append(tv, fmt.Sprintf("(%d, %d.5)", i, i%7))
	}
	for i := 0; i < 12; i++ {
		uv = append(uv, fmt.Sprintf("(%d, %d.25)", 3*i, i))
	}
	db.MustExec("INSERT INTO t VALUES " + strings.Join(tv, ", "))
	db.MustExec("INSERT INTO u VALUES " + strings.Join(uv, ", "))
	db.MustExec("CREATE VIEW top AS SELECT a FROM e ORDER BY a LIMIT 3")

	cases := []struct {
		name, sql string
		want      int64
	}{
		{"filtered scan", "SELECT a, b FROM t WHERE a < 25", 25},
		{"hash join", "SELECT t.a, u.c FROM t, u WHERE t.a = u.a", 64},
		{"cross join", "SELECT t.a, u.a FROM t, u WHERE t.a < 5", 137},
		{"grouped aggregate", "SELECT b, SUM(a) FROM t GROUP BY b", 14},
		{"aggregate without keys", "SELECT SUM(a), COUNT(*) FROM t", 2},
		{"aggregate without keys over empty table", "SELECT SUM(a) FROM e", 2},
		{"aggregate over empty single-partition view", "SELECT SUM(a) FROM top", 2},
		{"order by", "SELECT a FROM t ORDER BY b, a", 120},
		{"limit", "SELECT a FROM t LIMIT 7", 35},
		{"order by limit", "SELECT a FROM t ORDER BY b DESC, a LIMIT 9", 98},
	}
	for _, c := range cases {
		res := mustQuery(t, db, c.sql)
		if got := res.Stats.TuplesProduced; got != c.want {
			t.Errorf("%s: TuplesProduced = %d, want %d", c.name, got, c.want)
		}
	}
}
