package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"relalg/internal/value"
)

// TestGroupKeySemanticsPinned pins what grouping and hash-join key equality
// produce, byte for byte: one SHA-256 per query over its schema and EncodeRows
// at three cluster shapes, in memory and under a memory budget of one byte, which
// sends every hash aggregate and join build past its progress floor into spill
// runs. The budget admits nothing beyond each reservation's own floor, so which
// groups and rows spill does not depend on how the partitions race.
//
// The semantics pinned: numeric keys compare by their double value, so −0 and
// +0 are one group and the INTEGER keys 2⁵³ and 2⁵³+1 are one group too (the
// first row seen names it); a NaN key equals nothing, so each NaN row is its
// own group and joins nothing; NULL keys group together; AVG over an INTEGER
// column is a DOUBLE; a keyless aggregate over an empty table is one row.
func TestGroupKeySemanticsPinned(t *testing.T) {
	cases := []struct{ name, sql string }{
		{"double key", "SELECT d, COUNT(*), SUM(v), MIN(v), MAX(v) FROM kt GROUP BY d"},
		{"integer key", "SELECT i, COUNT(*), SUM(w) FROM kt GROUP BY i"},
		{"string key", "SELECT s, COUNT(*), SUM(v) FROM kt GROUP BY s"},
		{"mixed key", "SELECT w, s, COUNT(*), SUM(v) FROM kt GROUP BY w, s"},
		{"null key", "SELECT n, COUNT(*), SUM(v) FROM kt GROUP BY n"},
		{"avg integer", "SELECT s, AVG(w) FROM kt GROUP BY s"},
		{"keyless empty", "SELECT SUM(v), COUNT(*), AVG(w) FROM et"},
		{"join double", "SELECT kt.id, jt.id FROM kt, jt WHERE kt.d = jt.d"},
		{"join integer", "SELECT kt.id, jt.id FROM kt, jt WHERE kt.i = jt.i"},
	}
	want := map[string]string{
		"double key":    "9cea6abe6f39d2a1097b304f67c339450dbc3c6934e2ed749f6e25a64231c505",
		"integer key":   "6d4daad920bfe639db6d0d1e186b0635c3a3a17788d0ccac15aa1b941e59febc",
		"string key":    "278988a9e3ef58707f37d4b1f933c8ba94705a826a8131df12182e818ce153c5",
		"mixed key":     "83269ebf4689516967f2e3199fadbbb313857c443d7ef192278ec09f6b28efcf",
		"null key":      "419ad96b75c2a41855546470dcf3d09e62c47d7de9103466b5b6af11a31d1f0f",
		"avg integer":   "544be559736253848ee4f957ef91332a33ba8369a3491540fea7b6b54c67a7a5",
		"keyless empty": "017a845ae9e1bf922ae0934a36590e57bfab8eca1f0f9d4aecb1da58d7227533",
		"join double":   "3fe4ecea907a25b20810aa99fabd9039dd251632bb964638e089bdc5e6ca34de",
		"join integer":  "aaf85cfa8946f937fe6e8baf91b7dab8f09e4a4218431d738e7f530b84b2f453",
	}
	hashes := make([]hash.Hash, len(cases))
	for i := range hashes {
		hashes[i] = sha256.New()
	}
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {10, 2}} {
		for _, budget := range []int64{0, 1} {
			db := groupKeyDB(t, shape[0], shape[1], budget)
			for i, c := range cases {
				res := mustQuery(t, db, c.sql)
				switch c.name {
				case "double key":
					if budget > 0 && res.Stats.SpillEvents == 0 {
						t.Errorf("%dx%d: the one-byte budget spilled nothing", shape[0], shape[1])
					}
					nans, zeros := 0, 0
					for _, r := range res.Rows {
						if math.IsNaN(r[0].D) {
							nans++
						} else if r[0].D == 0 {
							zeros++
						}
					}
					if nans != 67 || zeros != 1 {
						t.Errorf("%dx%d: %d NaN groups and %d zero groups, want 67 and 1", shape[0], shape[1], nans, zeros)
					}
				case "integer key":
					bigs := 0
					for _, r := range res.Rows {
						if r[0].I >= 1<<53 {
							bigs++
						}
					}
					if bigs != 1 {
						t.Errorf("%dx%d: %d groups at 2^53 and above, want 1", shape[0], shape[1], bigs)
					}
				}
				for _, col := range res.Schema {
					fmt.Fprintf(hashes[i], "%s %s\n", col.Name, col.T)
				}
				hashes[i].Write(value.EncodeRows(res.Rows))
			}
		}
	}
	for i, c := range cases {
		if got := hex.EncodeToString(hashes[i].Sum(nil)); got != want[c.name] {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, want[c.name])
		}
	}
}

// groupKeyDB loads the pinned test's tables on a nodes×parts cluster with the
// given memory budget: kt, whose key columns hold the corner cases; jt, which
// kt joins; and the empty et.
func groupKeyDB(t *testing.T, nodes, parts int, budget int64) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = nodes
	cfg.Cluster.PartitionsPerNode = parts
	cfg.Cluster.MemoryBudgetBytes = budget
	db := Open(cfg)
	db.MustExec("CREATE TABLE kt (id INTEGER, d DOUBLE, i INTEGER, s STRING, n INTEGER, v DOUBLE, w INTEGER)")
	db.MustExec("CREATE TABLE jt (id INTEGER, d DOUBLE, i INTEGER)")
	db.MustExec("CREATE TABLE et (v DOUBLE, w INTEGER)")
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 7}
	const big = int64(1) << 53
	double := func(j int) float64 {
		if j%3 == 0 {
			return specials[(j/3)%len(specials)]
		}
		return float64(j%41) + 0.25
	}
	integer := func(j int) int64 {
		switch j % 10 {
		case 0:
			return big
		case 1:
			return big + 1
		}
		return int64(j % 53)
	}
	krows := make([]value.Row, 1200)
	for j := range krows {
		n := value.Int(int64(j % 29))
		if j%4 == 0 {
			n = value.Null()
		}
		krows[j] = value.Row{value.Int(int64(j)), value.Double(double(j)), value.Int(integer(j)),
			value.String_(fmt.Sprintf("s%02d", j%43)), n, value.Double(float64(j%7 - 3)), value.Int(int64(j % 11))}
	}
	jrows := make([]value.Row, 120)
	for j := range jrows {
		// Reversed, so the first 2⁵³ row jt sees is 2⁵³+1.
		jrows[j] = value.Row{value.Int(int64(j)), value.Double(double(3*j + 1 - j%2)), value.Int(integer(119 - j))}
	}
	if err := db.LoadTable("kt", krows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("jt", jrows); err != nil {
		t.Fatal(err)
	}
	return db
}
