package main

// engine.go is the only file of the harness that calls into the engine. The
// untraced path uses core.OpenData/Exec/Run/LoadTable/Close and
// serve.New/Listen/Serve/Shutdown/Dial/Do and nothing else, so a signature
// change in core or serve is a change to this file alone. The traced path and
// the probes additionally step through the public seams of the layers
// (sqlparse.Parse, plan.Builder, opt.Optimizer, core.ExecutePlanned,
// value.EncodeRows, serve.WriteFrame/ReadFrame, linalg kernels).

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"

	"relalg/internal/core"
	"relalg/internal/linalg"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/serve"
	"relalg/internal/sqlparse"
	"relalg/internal/value"
)

// deployment holds the only engine settings a workload may change: where the
// data lives and how much memory the machine gives it. Everything else is
// core.DefaultConfig(), the engine as shipped.
type deployment struct {
	dataDir      string // "" keeps tables in memory
	poolBytes    int64  // buffer pool, when dataDir is set; 0 = engine default
	memoryBudget int64  // per-query working-set cap before operators spill; 0 = none
}

type engine struct {
	db       *core.Database
	optOpts  opt.Options
	rewrites opt.RewriteStats
}

func openEngine(d deployment) (*engine, error) {
	cfg := core.DefaultConfig()
	cfg.DataDir = d.dataDir
	cfg.BufferPoolBytes = d.poolBytes
	cfg.Cluster.MemoryBudgetBytes = d.memoryBudget
	db, err := core.OpenData(cfg)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	e := &engine{db: db, optOpts: cfg.Optimizer}
	e.optOpts.Stats = &e.rewrites
	return e, nil
}

func (e *engine) exec(sql string) error { return e.db.Exec(sql) }

// run executes one statement as a caller would; DDL and INSERT return no rows.
func (e *engine) run(sql string) ([]value.Row, error) {
	res, err := e.db.Run(sql)
	if err != nil || res == nil {
		return nil, err
	}
	return res.Rows, nil
}

func (e *engine) load(table string, rows []value.Row) error { return e.db.LoadTable(table, rows) }

func (e *engine) close() error { return e.db.Close() }

// counters are the cluster-wide movement counts; the difference of two
// snapshots around an op is exact while there is one caller.
type counters struct {
	tuplesShuffled, bytesShuffled, tuplesProduced int64
	shuffleRounds, broadcastRounds, taskRetries   int64
	spillRuns, spillBytes                         int64
}

func (e *engine) counters() counters {
	s := e.db.Cluster().Stats().Snapshot()
	return counters{
		tuplesShuffled: s.TuplesShuffled, bytesShuffled: s.BytesShuffled, tuplesProduced: s.TuplesProduced,
		shuffleRounds: s.ShuffleRounds, broadcastRounds: s.BroadcastRounds, taskRetries: s.TaskRetries,
		spillRuns: s.SpillEvents, spillBytes: s.BytesSpilled,
	}
}

func (c counters) sub(b counters) counters {
	return counters{
		c.tuplesShuffled - b.tuplesShuffled, c.bytesShuffled - b.bytesShuffled, c.tuplesProduced - b.tuplesProduced,
		c.shuffleRounds - b.shuffleRounds, c.broadcastRounds - b.broadcastRounds, c.taskRetries - b.taskRetries,
		c.spillRuns - b.spillRuns, c.spillBytes - b.spillBytes,
	}
}

// poolCounters are the buffer pool's counts; zero for in-memory engines.
type poolCounters struct{ hits, misses, evictions, writebacks, peakBytes int64 }

func (e *engine) pool() poolCounters {
	st := e.db.Store()
	if st == nil {
		return poolCounters{}
	}
	p := st.PoolStats()
	return poolCounters{p.Hits, p.Misses, p.Evictions, p.Writebacks, p.PeakBytes}
}

// stmtKind names the span a non-SELECT statement is recorded under.
func stmtKind(stmt sqlparse.Statement) string {
	switch stmt.(type) {
	case *sqlparse.CreateTableAs:
		return "ctas"
	case *sqlparse.Insert:
		return "insert"
	default:
		return "ddl"
	}
}

// runTraced executes one statement through the layers' public seams, with a
// span around each: stmt › {parse, build, optimize, execute, encode} for a
// SELECT, stmt › {parse, ctas|ddl|insert} otherwise (core exposes no seam
// inside those). Operator times inside execute come from Result.Timings and
// are added to opTimes by label.
func (e *engine) runTraced(tr *tracer, parent *span, sql string, opTimes map[string]time.Duration) ([]value.Row, error) {
	st := tr.start("stmt", parent)
	defer st.end()

	sp := tr.start("parse", st)
	stmt, err := sqlparse.Parse(sql)
	sp.end()
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		sp = tr.start(stmtKind(stmt), st)
		_, err = e.db.RunParsed(stmt, core.Resources{})
		sp.end()
		return nil, err
	}

	sp = tr.start("build", st)
	logical, err := plan.NewBuilder(e.db.Catalog()).BuildSelect(sel)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("optimize", st)
	node, err := opt.New(e.optOpts).Optimize(logical)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("execute", st)
	res, err := e.db.ExecutePlanned(node, core.Resources{})
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, label := range res.Timings.Labels() {
		opTimes[label] += res.Timings.Get(label)
	}
	sp = tr.start("encode", st)
	sink += float64(len(value.EncodeRows(res.Rows)))
	sp.end()
	return res.Rows, nil
}

// ---- serving ----

type server struct {
	srv    *serve.Server
	addr   string
	served chan error
}

// startServer serves the engine on a loopback port the kernel picks.
func (e *engine) startServer(maxConcurrent int) (*server, error) {
	srv := serve.New(e.db, serve.Config{MaxConcurrent: maxConcurrent})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, addr: addr.String(), served: make(chan error, 1)}
	go func() { s.served <- srv.Serve() }()
	return s, nil
}

// shutdown returns once the accept loop and every session have ended.
func (s *server) shutdown() error {
	if err := s.srv.Shutdown(); err != nil {
		return err
	}
	return <-s.served
}

type serverCounters struct {
	cacheHits, cacheMisses, admissionWaits, peakConcurrent, statementErrors int64
}

func (s *server) counters() serverCounters {
	st := s.srv.Stats()
	return serverCounters{st.CacheHits, st.CacheMisses, st.AdmissionWaits, st.PeakConcurrent, st.StatementErrors}
}

// reply is what a session gets back for one statement.
type reply struct {
	rows     []value.Row
	payloads [][]byte // row frames as received
	done     string
	errMsg   string
}

func (r *reply) bytes() int {
	n := 0
	for _, p := range r.payloads {
		n += len(p)
	}
	return n
}

// session is one client connection. do sends one statement and waits for the
// whole reply; with a tracer it also records where the time went.
type session interface {
	do(tr *tracer, parent *span, sql string) (*reply, error)
	close() error
}

type plainSession struct{ c *serve.Client }

func dialSession(addr string) (session, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	return plainSession{c}, nil
}

func (s plainSession) do(_ *tracer, _ *span, sql string) (*reply, error) {
	r, err := s.c.Do(sql)
	if err != nil {
		return nil, err
	}
	return &reply{rows: r.Rows, payloads: r.RowPayloads, done: r.Done, errMsg: r.ErrMsg}, nil
}

func (s plainSession) close() error { return s.c.Close() }

// tracedSession speaks the protocol with serve.WriteFrame/ReadFrame so the
// harness can put spans between the steps serve.Client.Do runs together:
// wire.send (request written), server.wait (until the first reply byte) and
// wire.recv_decode (frames read and rows decoded).
type tracedSession struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialTracedSession(addr string) (session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &tracedSession{conn: conn, br: bufio.NewReader(conn)}
	typ, _, err := serve.ReadFrame(s.br)
	if err == nil && typ != serve.FrameHello {
		err = fmt.Errorf("expected hello frame, got %q", typ)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return s, nil
}

func (s *tracedSession) do(tr *tracer, parent *span, sql string) (*reply, error) {
	sp := tr.start("wire.send", parent)
	err := serve.WriteFrame(s.conn, serve.FrameQuery, []byte(sql))
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("server.wait", parent)
	_, err = s.br.Peek(1)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("wire.recv_decode", parent)
	defer sp.end()
	r := &reply{}
	for {
		typ, payload, err := serve.ReadFrame(s.br)
		if err != nil {
			return nil, err
		}
		switch typ {
		case serve.FrameRows:
			r.payloads = append(r.payloads, payload)
			rows, err := value.DecodeRows(payload)
			if err != nil {
				return nil, fmt.Errorf("decoding row frame: %w", err)
			}
			r.rows = append(r.rows, rows...)
		case serve.FrameError:
			r.errMsg = string(payload)
		case serve.FrameDone:
			r.done = string(payload)
			return r, nil
		case serve.FrameSchema, serve.FrameStats:
		default:
			return nil, fmt.Errorf("unexpected frame type %q", typ)
		}
	}
}

func (s *tracedSession) close() error { return s.conn.Close() }

// ---- probes: one layer's functions called directly at the workload's shapes ----

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timeLoop calls f until budget has passed (at least twice) and returns the
// mean seconds per call.
func timeLoop(budget time.Duration, f func()) float64 {
	f() // warm caches and the allocator
	start := time.Now()
	n := 0
	for n < 2 || time.Since(start) < budget {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

func randomMatrix(rows, cols int, seed int64) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	x := uint64(seed)*2654435761 + 1
	for i := range m.Data {
		x = x*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(x>>40)/float64(1<<24) - 0.5
	}
	return m
}

// probeMatmul times the blocked Gram kernel's shape, (d×rows)·(rows×d), and
// returns GFLOP/s.
func probeMatmul(rows, d, workers int, budget time.Duration) float64 {
	a, b := randomMatrix(d, rows, 1), randomMatrix(rows, d, 2)
	sec := timeLoop(budget, func() {
		out, err := linalg.ParallelMulMat(a, b, workers)
		if err != nil {
			panic(err) // shapes are built to agree just above
		}
		sink += out.Data[0]
	})
	return 2 * float64(rows) * float64(d) * float64(d) / sec / 1e9
}

// probeOuterAcc times the rank-1 update behind SUM(outer_product(x, x)).
func probeOuterAcc(d int, budget time.Duration) float64 {
	acc := linalg.NewMatrix(d, d)
	v := &linalg.Vector{Data: randomMatrix(1, d, 3).Data}
	sec := timeLoop(budget, func() {
		for i := 0; i < 64; i++ {
			if err := v.OuterAddInto(acc, v); err != nil {
				panic(err) // acc is d×d by construction
			}
		}
		sink += acc.Data[0]
	})
	return 64 * 2 * float64(d) * float64(d) / sec / 1e9
}

// probeMatvec times matrix_vector_multiply at d×d.
func probeMatvec(d int, budget time.Duration) float64 {
	m := randomMatrix(d, d, 4)
	v := &linalg.Vector{Data: randomMatrix(1, d, 5).Data}
	sec := timeLoop(budget, func() {
		for i := 0; i < 64; i++ {
			out, err := m.MulVec(v)
			if err != nil {
				panic(err) // m is d×d and v has d entries by construction
			}
			sink += out.Data[0]
		}
	})
	return 64 * 2 * float64(d) * float64(d) / sec / 1e9
}

// probeCodec times the row codec that sits under shuffles, spills, pages and
// row frames, over the workload's own rows. It returns MB/s each way.
func probeCodec(rows []value.Row, budget time.Duration) (encMBs, decMBs float64) {
	var buf []byte
	encSec := timeLoop(budget, func() { buf = value.EncodeRows(rows) })
	decSec := timeLoop(budget, func() {
		out, err := value.DecodeRows(buf)
		if err != nil {
			panic(err) // buf was produced by EncodeRows just above
		}
		sink += float64(len(out))
	})
	mb := float64(len(buf)) / 1e6
	return mb / encSec, mb / decSec
}

// encodedSize is the row codec's size of rows, the "user bytes" that disk and
// wire volumes are compared against.
func encodedSize(rows []value.Row) int64 {
	var n int64
	for lo := 0; lo < len(rows); lo += 4096 {
		n += int64(len(value.EncodeRows(rows[lo:min(lo+4096, len(rows))])))
	}
	return n
}

// probeFrames times serve's framing alone: payloads of the given size written
// and read back through memory.
func probeFrames(payloadBytes int, budget time.Duration) float64 {
	payload := make([]byte, payloadBytes)
	var buf bytes.Buffer
	sec := timeLoop(budget, func() {
		buf.Reset()
		if err := serve.WriteFrame(&buf, serve.FrameRows, payload); err != nil {
			panic(err) // bytes.Buffer cannot fail and the payload is under the cap
		}
		_, got, err := serve.ReadFrame(&buf)
		if err != nil {
			panic(err)
		}
		sink += float64(len(got))
	})
	return float64(payloadBytes) / 1e6 / sec
}
