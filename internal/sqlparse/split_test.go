package sqlparse

import (
	"os"
	"reflect"
	"testing"
)

// The two texts that a newline inside a "--" comment tells apart: the first
// filters, the second does not.
const (
	commentLineFilters = "SELECT x FROM t -- c\nWHERE x = 1"
	commentLineHides   = "SELECT x FROM t -- c WHERE x = 1"
)

func TestKey(t *testing.T) {
	key := func(src string) string {
		t.Helper()
		p, err := ParseOne(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return p.Key()
	}
	same := [][2]string{
		{"SELECT a FROM t", "select A from T"},                   // case
		{"SELECT a FROM t", "  SELECT\ta\n\nFROM   t  "},         // whitespace
		{"SELECT a FROM t", "SELECT /* x; 'y */ a -- z\nFROM t"}, // comments
		{"SELECT a FROM t", "SELECT a FROM t;;"},                 // trailing ';'
		{"SELECT a FROM t WHERE a != 1", "SELECT a FROM t WHERE a <> 1"},
	}
	for _, c := range same {
		if key(c[0]) != key(c[1]) {
			t.Errorf("%q and %q have different keys", c[0], c[1])
		}
	}
	differ := [][2]string{
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 2"}, // literals
		{"SELECT 1", "SELECT 1.0"},
		{"SELECT 'Ab'", "SELECT 'ab'"}, // string case is data
		{"SELECT 'a', 'b'", "SELECT 'a, b'"},
		{commentLineFilters, commentLineHides},
	}
	for _, c := range differ {
		if key(c[0]) == key(c[1]) {
			t.Errorf("%q and %q share a key", c[0], c[1])
		}
	}
}

func TestSplitText(t *testing.T) {
	src := "SELECT 1 AS a; -- don't\nSELECT 2 AS b /* ; */; SELECT ';' AS c;"
	ps, err := Split(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT 1 AS a", "SELECT 2 AS b", "SELECT ';' AS c"}
	if len(ps) != len(want) {
		t.Fatalf("%d statements, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Text != want[i] {
			t.Errorf("statement %d: text %q, want %q", i, p.Text, want[i])
		}
	}
}

// FuzzSplit checks the one SQL scanner's three uses against each other:
// Split succeeds exactly when ParseScript does; each statement's text parses
// alone to the statement ParseScript found, with the same key; and
// statements with equal keys parse to equal statements.
func FuzzSplit(f *testing.F) {
	f.Add(commentLineFilters + ";\n" + commentLineHides + ";")
	f.Add("SELECT 1 AS a; -- don't\nSELECT 2 AS b; SELECT 3 AS c;")
	f.Add("select A from T; SELECT a /* ; */ FROM t -- '\n;")
	src, err := os.ReadFile("../plan/testdata/fuzzplan_seeds.sql")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src))
	seeds, err := Split(string(src))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := Split(src)
		stmts, serr := ParseScript(src)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Split error %v, ParseScript error %v", err, serr)
		}
		if err != nil {
			return
		}
		if len(ps) != len(stmts) {
			t.Fatalf("Split found %d statements, ParseScript %d", len(ps), len(stmts))
		}
		byKey := map[string]Statement{}
		for i, p := range ps {
			alone, err := ParseOne(p.Text)
			if err != nil {
				t.Fatalf("statement %d %q: %v", i, p.Text, err)
			}
			if !reflect.DeepEqual(alone.Stmt, stmts[i]) {
				t.Fatalf("statement %d %q parses alone to a different statement", i, p.Text)
			}
			if alone.Key() != p.Key() {
				t.Fatalf("statement %d %q changes key when cut out", i, p.Text)
			}
			if prev, ok := byKey[p.Key()]; ok && !reflect.DeepEqual(prev, p.Stmt) {
				t.Fatalf("statement %d %q shares a key with a different statement", i, p.Text)
			}
			byKey[p.Key()] = p.Stmt
		}
	})
}
