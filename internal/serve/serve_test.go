package serve

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"relalg/internal/core"
	"relalg/internal/value"
)

// testDB builds a small 2×2 engine with the shared fixture tables loaded:
// pts (2000 rows, 97 groups — big enough to spill under a small lease) and
// vecs (vector rows for the LA kernels).
func testDB(t *testing.T) *core.Database {
	t.Helper()
	return testDBWith(t, 0)
}

// testDBWith is testDB with a MaxIntermediateTuples budget (0 = none).
func testDBWith(t *testing.T, maxTuples int64) *core.Database {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	cfg.Cluster.MaxIntermediateTuples = maxTuples
	db := core.Open(cfg)
	db.MustExec("CREATE TABLE pts (g INTEGER, v DOUBLE)")
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i % 97)), value.Double(float64(i) * 0.5)}
	}
	if err := db.LoadTable("pts", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE vecs (id INTEGER, vec VECTOR[6])")
	vrows := make([]value.Row, 60)
	for i := range vrows {
		entries := make([]float64, 6)
		for j := range entries {
			entries[j] = float64((i*7+j*3)%11) - 5
		}
		vrows[i] = value.Row{value.Int(int64(i)), core.VectorValue(entries...)}
	}
	if err := db.LoadTable("vecs", vrows); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer listens on an ephemeral port, serves in the background, and
// shuts down gracefully at cleanup (failing the test if Serve errored).
func startServer(t *testing.T, db *core.Database, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v, want nil after Shutdown", err)
		}
	})
	return srv, addr.String()
}

// clientScript is one session's statement sequence: per-client DDL and
// loads, a spilling aggregation over the shared table, LA kernel queries, a
// repeated statement (plan-cache hit), a join, and cleanup DDL.
func clientScript(i int) []string {
	tbl := fmt.Sprintf("cli%d", i)
	return []string{
		fmt.Sprintf("CREATE TABLE %s (id INTEGER, val DOUBLE)", tbl),
		fmt.Sprintf("INSERT INTO %s VALUES (0, %g), (1, %g), (2, 7)", tbl, 0.5+float64(i), 1.25*float64(i+1)),
		fmt.Sprintf("SELECT id, val * 2 FROM %s ORDER BY id", tbl),
		"SELECT g, SUM(v) AS total FROM pts GROUP BY g ORDER BY g",
		"SELECT SUM(outer_product(vec, vec)) FROM vecs",
		"SELECT g, SUM(v) AS total FROM pts GROUP BY g ORDER BY g",
		fmt.Sprintf("SELECT COUNT(*) FROM pts, %s WHERE pts.g = %s.id", tbl, tbl),
		fmt.Sprintf("DROP TABLE %s", tbl),
	}
}

// runScript executes stmts over one connection and digests every reply's
// schema and raw row payloads. Statement errors fail the test; the digest is
// what the serial-vs-concurrent comparison bit-compares.
func runScript(t *testing.T, addr string, stmts []string) []byte {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer func() { _ = c.Close() }()
	var digest bytes.Buffer
	for _, stmt := range stmts {
		reply, err := c.Do(stmt)
		if err != nil {
			t.Fatalf("%q: transport: %v", stmt, err)
		}
		if reply.ErrMsg != "" {
			t.Fatalf("%q: %s", stmt, reply.ErrMsg)
		}
		digest.WriteString("S:" + strings.Join(reply.Schema, "|") + "\n")
		for _, p := range reply.RowPayloads {
			digest.WriteString("R:")
			digest.Write(p)
			digest.WriteString("\n")
		}
		digest.WriteString("D:" + reply.Done + "\n")
	}
	return digest.Bytes()
}

// serveTestConfig: 3 execution slots arbitrating a 12 KiB memory pool (a 4
// KiB lease per slot, small enough that the 97-group aggregation spills).
func serveTestConfig() Config {
	return Config{MaxConcurrent: 3, MemoryPoolBytes: 12 << 10}
}

const numSessions = 8

// TestServeConcurrentMatchesSerial is the subsystem's acceptance test: 8
// concurrent sessions mixing DDL, loads, LA queries, and a spilling
// aggregation under the shared memory pool produce byte-identical responses
// to the same scripts run serially, while admission provably bounds
// concurrency and the plan cache serves repeats.
func TestServeConcurrentMatchesSerial(t *testing.T) {
	// Serial reference: same server shape, scripts run one after another.
	serialSrv, serialAddr := startServer(t, testDB(t), serveTestConfig())
	want := make([][]byte, numSessions)
	for i := 0; i < numSessions; i++ {
		want[i] = runScript(t, serialAddr, clientScript(i))
	}
	if hits := serialSrv.Stats().CacheHits; hits < numSessions {
		t.Errorf("serial cache hits = %d, want >= %d (each script repeats a statement)", hits, numSessions)
	}

	concDB := testDB(t)
	concSrv, concAddr := startServer(t, concDB, serveTestConfig())
	got := make([][]byte, numSessions)
	var wg sync.WaitGroup
	for i := 0; i < numSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runScript(t, concAddr, clientScript(i))
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := 0; i < numSessions; i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("session %d: concurrent results differ from serial (%d vs %d digest bytes)",
				i, len(got[i]), len(want[i]))
		}
	}
	st := concSrv.Stats()
	if st.PeakConcurrent > 3 {
		t.Errorf("peak concurrent %d exceeds admission limit 3", st.PeakConcurrent)
	}
	if st.PeakConcurrent < 1 {
		t.Errorf("peak concurrent %d; nothing executed?", st.PeakConcurrent)
	}
	if st.QueriesServed != numSessions*int64(len(clientScript(0))) {
		t.Errorf("queries served %d, want %d", st.QueriesServed, numSessions*len(clientScript(0)))
	}
	if st.CacheMisses == 0 {
		t.Error("no plan-cache misses recorded")
	}
	cst := concDB.Cluster().Stats().Snapshot()
	if cst.SpillEvents == 0 {
		t.Error("no spill events: the shared memory pool never forced a query out of core")
	}
	// One scratch file per spilling task attempt, however many runs it wrote.
	if cst.SpillFiles <= 0 || cst.SpillFiles > cst.SpillEvents {
		t.Errorf("%d spill files for %d spill runs, want 0 < files <= runs", cst.SpillFiles, cst.SpillEvents)
	}
	t.Logf("%d spill runs in %d files", cst.SpillEvents, cst.SpillFiles)
	if st.SessionsOpened != numSessions {
		t.Errorf("sessions opened = %d, want %d", st.SessionsOpened, numSessions)
	}
	// Session teardown is asynchronous with the client's Close: poll briefly.
	for i := 0; concSrv.Stats().SessionsClosed != numSessions && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if closed := concSrv.Stats().SessionsClosed; closed != numSessions {
		t.Errorf("sessions closed = %d, want %d", closed, numSessions)
	}
}

// TestServePlanCacheDDLInvalidation pins the invalidation contract: repeats
// hit, any DDL (even on an unrelated table) misses afterwards.
func TestServePlanCacheDDLInvalidation(t *testing.T) {
	srv, addr := startServer(t, testDB(t), Config{MaxConcurrent: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	do := func(stmt string) {
		t.Helper()
		reply, err := c.Do(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		if reply.ErrMsg != "" {
			t.Fatalf("%q: %s", stmt, reply.ErrMsg)
		}
	}
	const q = "SELECT COUNT(*) FROM pts"
	do(q)
	if st := srv.Stats(); st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", st.CacheHits, st.CacheMisses)
	}
	do("SELECT  count(*)  FROM pts") // same statement modulo case/whitespace
	if st := srv.Stats(); st.CacheHits != 1 {
		t.Fatalf("normalized repeat missed: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	do("CREATE TABLE unrelated (x INTEGER)")
	do(q)
	if st := srv.Stats(); st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("after DDL: hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	do(q)
	if st := srv.Stats(); st.CacheHits != 2 {
		t.Fatalf("recompiled plan not served: hits=%d", st.CacheHits)
	}
}

// TestServeStatementErrorKeepsSession: a failing statement is framed as an
// error and the session stays usable.
func TestServeStatementErrorKeepsSession(t *testing.T) {
	srv, addr := startServer(t, testDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	reply, err := c.Do("SELECT * FROM no_such_table")
	if err != nil {
		t.Fatal(err)
	}
	if reply.ErrMsg == "" {
		t.Fatal("expected a framed statement error")
	}
	reply, err = c.Do("SELECT COUNT(*) FROM pts")
	if err != nil || reply.ErrMsg != "" {
		t.Fatalf("session unusable after error: %v %q", err, reply.ErrMsg)
	}
	if len(reply.Rows) != 1 || reply.Rows[0][0].I != 2000 {
		t.Fatalf("count rows %v", reply.Rows)
	}
	if st := srv.Stats(); st.StatementErrors != 1 {
		t.Fatalf("statement errors %d, want 1", st.StatementErrors)
	}
}

// TestServeStatsCommand: the \stats meta-command reports both server-wide
// and session counters.
func TestServeStatsCommand(t *testing.T) {
	_, addr := startServer(t, testDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Do("SELECT COUNT(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queries_served", "plan_cache_hits", "peak_concurrent", "session_queries"} {
		if !strings.Contains(text, key) {
			t.Errorf("stats output missing %q:\n%s", key, text)
		}
	}
}

// TestServeLoopUnderTupleBudget: the tuple budget is per statement, so a
// served loop whose statements each fit MaxIntermediateTuples keeps succeeding
// long after their sum has passed it, while one statement over the budget
// still fails.
func TestServeLoopUnderTupleBudget(t *testing.T) {
	_, addr := startServer(t, testDBWith(t, 3000), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	const fits = "SELECT g, v * 2 FROM pts WHERE v >= 0" // 2 000 tuples
	for i := 0; i < 10; i++ {
		reply, err := c.Do(fits)
		if err != nil {
			t.Fatal(err)
		}
		if reply.ErrMsg != "" || len(reply.Rows) != 2000 {
			t.Fatalf("statement %d: %d rows, error %q", i, len(reply.Rows), reply.ErrMsg)
		}
	}
	reply, err := c.Do("SELECT COUNT(*) FROM pts a, pts b WHERE a.g = b.g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.ErrMsg, "budget") {
		t.Fatalf("a 41 260-pair join under a 3 000-tuple budget: error %q, want a budget error", reply.ErrMsg)
	}
}
