package main

import (
	"bytes"
	"strings"
	"testing"

	"relalg/internal/core"
	"relalg/internal/serve"
)

// bothModesScript holds a ';' and a "'" inside comments, a block comment, a
// quoted ';', DDL, SELECTs, one failing statement, and statements split
// across lines where a line holds a ';' only inside a string or a comment.
const bothModesScript = `-- setup; it's data
CREATE TABLE t (x INTEGER, s STRING);
INSERT INTO t VALUES (1, 'a;b'), (2, 'it''s'), (3, 'c');
/* a block comment; with a ' quote */
SELECT x, s FROM t WHERE s = 'a;b'
ORDER BY x;
SELECT COUNT(*) AS n -- count; all
FROM t; -- don't stop here
SELECT x FROM no_such_table;
SELECT SUM(x) AS total FROM t;
`

func testDB() *core.Database {
	cfg := core.DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	return core.Open(cfg)
}

// runBoth runs src through a session in-process and through one against a
// server, each over its own empty database, and returns both stdouts,
// stderrs and exit codes.
func runBoth(t *testing.T, src string, interactive bool) (out, errOut [2]string, code [2]int) {
	t.Helper()
	srv := serve.New(testDB(), serve.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	c, err := serve.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for i, run := range []runner{localRunner(testDB()), clientRunner(c)} {
		var o, e bytes.Buffer
		code[i] = session(strings.NewReader(src), &o, &e, interactive, run)
		out[i], errOut[i] = o.String(), e.String()
	}
	return out, errOut, code
}

func TestBothModesPrintTheSame(t *testing.T) {
	for _, interactive := range []bool{false, true} {
		out, errOut, code := runBoth(t, bothModesScript, interactive)
		if out[0] != out[1] || code[0] != code[1] {
			t.Fatalf("interactive=%v: in-process (exit %d)\n%s\nclient (exit %d)\n%s", interactive, code[0], out[0], code[1], out[1])
		}
		if code[0] != 1 {
			t.Errorf("interactive=%v: exit %d, want 1 after a failing statement", interactive, code[0])
		}
		for i, e := range errOut {
			if strings.Count(e, "error: ") != 1 || !strings.Contains(e, "no_such_table") {
				t.Errorf("interactive=%v, mode %d: stderr %q, want the one failure", interactive, i, e)
			}
		}
		// Two DDL statements print ok; the quoted ';' row and the count
		// print as tables. A script stops at its failure; a prompt goes on.
		if n := strings.Count(out[0], "ok\n\n"); n != 2 {
			t.Errorf("interactive=%v: %d ok lines, want 2", interactive, n)
		}
		for _, want := range []string{"x\ts\n1\ta;b\n(1 rows; ", "n\n3\n(1 rows; "} {
			if !strings.Contains(out[0], want) {
				t.Errorf("interactive=%v: output lacks %q:\n%s", interactive, want, out[0])
			}
		}
		if got := strings.Contains(out[0], "total\n6\n"); got != interactive {
			t.Errorf("interactive=%v: statement after the failure ran: %v", interactive, got)
		}
	}
}

func TestScriptParsedBeforeRunning(t *testing.T) {
	out, _, code := runBoth(t, "CREATE TABLE u (x INTEGER); SELECT FROM;", false)
	for i := range out {
		if code[i] != 1 || out[i] != "" {
			t.Errorf("mode %d: exit %d, output %q; want 1 and nothing run", i, code[i], out[i])
		}
	}
}
