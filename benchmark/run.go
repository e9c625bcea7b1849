package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"relalg/internal/value"
)

const (
	warmupOps = 3 // embedded warm-up ops per set-up
	minOps    = 3 // measured ops per block, however short the run

	rssStretches = 5 // stretches of an untraced run; peak_rss_mb is the median of their peaks
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	outDir   string // trace files
	tmpDir   string // data directories; spill directories land here through TMPDIR
}

// runResult is one run of one workload.
type runResult struct {
	attempted, failed int
	samples           int // latency samples behind the percentiles
	setupReps         int
	rssProcessWide    bool  // the kernel refused a per-stretch peak_rss_mb
	firstErr          error // first failed op, for the log
	metrics           map[string]float64
}

// live is a workload that has been set up: engine open, tables loaded, server
// and sessions up, caches warm.
type live struct {
	sp       *spec
	eng      *engine
	dep      deployment
	srv      *server
	sessions []*sessionState

	loadRows    int
	loadSeconds float64
	stmtNs      []int64 // traced time per script statement, summed over ops
}

// setUp is everything setup_s times: open the store, DDL, bulk load, views,
// server start, dial, warm-up ops. Data generation happened before.
func setUp(sp *spec, tmpDir string, traced bool) (l *live, err error) {
	l = &live{sp: sp, stmtNs: make([]int64, len(sp.script))}
	defer func() {
		if err != nil {
			err = errors.Join(err, l.tearDown())
		}
	}()
	if sp.deploy != nil {
		dir, err := os.MkdirTemp(tmpDir, sp.name+"-data-")
		if err != nil {
			return l, err
		}
		l.dep = sp.deploy(dir)
	}
	if l.eng, err = openEngine(l.dep); err != nil {
		return l, err
	}
	for _, t := range sp.tables {
		if err := l.eng.exec(t.ddl); err != nil {
			return l, fmt.Errorf("%s: %w", t.name, err)
		}
		if len(t.rows) == 0 {
			continue
		}
		start := time.Now()
		if err := l.eng.load(t.name, t.rows); err != nil {
			return l, fmt.Errorf("load %s: %w", t.name, err)
		}
		l.loadSeconds += time.Since(start).Seconds()
		l.loadRows += len(t.rows)
	}
	for _, v := range sp.views {
		if err := l.eng.exec(v); err != nil {
			return l, fmt.Errorf("view: %w", err)
		}
	}
	if sp.serve == nil {
		for i := 0; i < warmupOps; i++ {
			if _, err := l.op(nil, nil); err != nil {
				return l, fmt.Errorf("warm-up op: %w", err)
			}
		}
		return l, nil
	}
	if l.srv, err = l.eng.startServer(sp.serve.maxConcurrent); err != nil {
		return l, err
	}
	dial := dialSession
	if traced {
		dial = dialTracedSession
	}
	for i := 0; i < sp.serve.sessions; i++ {
		conn, err := dial(l.srv.addr)
		if err != nil {
			return l, fmt.Errorf("dial session %d: %w", i, err)
		}
		l.sessions = append(l.sessions, newSessionState(sp.serve, i, conn))
	}
	warm := l.serveBlock(func(done int, _ time.Duration) bool { return done >= sp.serve.warmup }, nil)
	if warm.failed > 0 {
		return l, fmt.Errorf("warm-up op: %w", warm.firstErr)
	}
	return l, nil
}

// tearDown stops everything setUp started and removes the data directory.
func (l *live) tearDown() error {
	var errs []error
	for _, s := range l.sessions {
		errs = append(errs, s.conn.close())
	}
	if l.srv != nil {
		errs = append(errs, l.srv.shutdown())
	}
	if l.eng != nil {
		errs = append(errs, l.eng.close())
	}
	if l.dep.dataDir != "" {
		errs = append(errs, os.RemoveAll(l.dep.dataDir))
	}
	l.sessions, l.srv, l.eng = nil, nil, nil
	return errors.Join(errs...)
}

// op runs the workload's script once and checks the result. The latency is
// the engine calls alone; checking happens after the clock stops.
func (l *live) op(tr *tracer, opTimes map[string]time.Duration) (time.Duration, error) {
	var results [][]value.Row
	var err error
	root := tr.start("op", nil)
	start := time.Now()
	for i, sql := range l.sp.script {
		var rows []value.Row
		if tr == nil {
			rows, err = l.eng.run(sql)
		} else {
			stmtStart := time.Now()
			rows, err = l.eng.runTraced(tr, root, sql, opTimes)
			l.stmtNs[i] += int64(time.Since(stmtStart))
		}
		if err != nil {
			err = fmt.Errorf("statement %d: %w", i, err)
			break
		}
		if rows != nil {
			results = append(results, rows)
		}
	}
	lat := time.Since(start)
	root.end()
	if err == nil {
		err = l.sp.check(results)
	}
	return lat, err
}

// block is one stretch of measured ops.
type block struct {
	lats       []float64 // ms, every attempted op
	classLats  [numClasses][]float64
	attempted  int
	failed     int
	firstErr   error
	wall       time.Duration
	replyBytes int64
}

func (b *block) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

func (b *block) verified() int { return b.attempted - b.failed }

// merge adds o's ops to b; the caller accounts for wall time.
func (b *block) merge(o *block) {
	b.lats = append(b.lats, o.lats...)
	for c := range o.classLats {
		b.classLats[c] = append(b.classLats[c], o.classLats[c]...)
	}
	b.attempted += o.attempted
	b.failed += o.failed
	b.replyBytes += o.replyBytes
	if b.firstErr == nil {
		b.firstErr = o.firstErr
	}
}

// untilElapsed stops a block once d has passed and minOps ops are done.
func untilElapsed(d time.Duration) func(int, time.Duration) bool {
	return func(done int, elapsed time.Duration) bool { return done >= minOps && elapsed >= d }
}

// measure runs ops in a closed loop until stop says so: one caller for an
// embedded workload, every session at once for a served one.
func (l *live) measure(stop func(done int, elapsed time.Duration) bool, trs []*tracer, opTimes map[string]time.Duration) *block {
	if l.sp.serve != nil {
		return l.serveBlock(stop, trs)
	}
	var tr *tracer
	if trs != nil {
		tr = trs[0]
	}
	b := &block{}
	start := time.Now()
	for !stop(b.attempted, time.Since(start)) {
		lat, err := l.op(tr, opTimes)
		b.attempted++
		b.lats = append(b.lats, float64(lat)/1e6)
		if err != nil {
			b.fail(err)
		}
	}
	b.wall = time.Since(start)
	return b
}

// ---- served ops ----

// sessionState is one closed-loop client: its connection, its place in the
// class schedule, and the replies it has already verified.
type sessionState struct {
	sv        *serveSpec
	index     int
	conn      session
	nextClass func() int
	pointIDs  []int // ids this session looks up, each once before any repeats
	pointPos  int
	inserts   int
	verified  [numClasses][][]byte // row frames of the first oracle-checked reply
}

// newSessionState makes client number index; clients beyond the spec's
// sessions reuse the first sessions' lookup ids.
func newSessionState(sv *serveSpec, index int, conn session) *sessionState {
	return &sessionState{
		sv: sv, index: index, conn: conn,
		nextClass: sv.schedule(index),
		pointIDs:  sv.pointIDs[index%len(sv.pointIDs)],
	}
}

// statement is the session's next SQL text of a class and, for a point
// lookup, the row it must return.
func (s *sessionState) statement(class int) (sql string, want []value.Row) {
	switch class {
	case classAggHit:
		return sqlAggHit, nil
	case classLaHit:
		return sqlLaHit, nil
	case classWideRows:
		return sqlWideRows, nil
	case classPointMiss:
		id := s.pointIDs[s.pointPos%len(s.pointIDs)]
		s.pointPos++
		return fmt.Sprintf("SELECT id, g, v FROM pts WHERE id = %d", id), []value.Row{s.sv.points[id][:3]}
	default:
		s.inserts++
		return fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d.5)", s.index, s.inserts, s.inserts), nil
	}
}

// op sends the session's next statement and checks the reply.
func (s *sessionState) op(tr *tracer) (class int, lat time.Duration, replyBytes int, err error) {
	class = s.nextClass()
	sql, want := s.statement(class)
	root := tr.start("op", nil)
	start := time.Now()
	rep, err := s.conn.do(tr, root, sql)
	lat = time.Since(start)
	root.end()
	if err != nil {
		return class, lat, 0, err
	}
	if rep.errMsg != "" {
		return class, lat, 0, fmt.Errorf("%s: server error: %s", classNames[class], rep.errMsg)
	}
	switch {
	case class == classInsert:
		if rep.done != "ok" {
			err = fmt.Errorf("done frame %q", rep.done)
		}
	case class == classPointMiss:
		err = rowsEqual(rep.rows, want)
	case s.verified[class] == nil:
		// Reads of pts do not change under the inserts into ev, so one check
		// against the oracle covers every later byte-identical reply.
		if err = rowsEqual(rep.rows, s.sv.expected[class]); err == nil {
			s.verified[class] = rep.payloads
		}
	default:
		if !framesEqual(rep.payloads, s.verified[class]) {
			err = errors.New("row frames differ from the oracle-checked reply")
		}
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", classNames[class], err)
	}
	return class, lat, rep.bytes(), err
}

func framesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// serveBlock runs every session concurrently, each in its own closed loop,
// until stop is true for that session.
func (l *live) serveBlock(stop func(done int, elapsed time.Duration) bool, trs []*tracer) *block {
	parts := make([]*block, len(l.sessions))
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range l.sessions {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		parts[i] = &block{}
		wg.Add(1)
		go func(s *sessionState, b *block, tr *tracer) {
			defer wg.Done()
			for !stop(b.attempted, time.Since(start)) {
				class, lat, n, err := s.op(tr)
				b.attempted++
				ms := float64(lat) / 1e6
				b.lats = append(b.lats, ms)
				b.classLats[class] = append(b.classLats[class], ms)
				b.replyBytes += int64(n)
				if err != nil {
					b.fail(err)
				}
			}
		}(s, parts[i], tr)
	}
	wg.Wait()
	all := &block{wall: time.Since(start)}
	for _, b := range parts {
		all.merge(b)
	}
	return all
}

// checkInserts asks the server how many rows ev holds: every insert any
// session sent, warm-up included, must be there exactly once.
func (l *live) checkInserts() error {
	want := int64(0)
	for _, s := range l.sessions {
		want += int64(s.inserts)
	}
	rep, err := l.sessions[0].conn.do(nil, nil, "SELECT COUNT(*) FROM ev")
	if err != nil {
		return err
	}
	if rep.errMsg != "" || len(rep.rows) != 1 || rep.rows[0][0].I != want {
		return fmt.Errorf("ev holds %v rows (error %q), want %d", rep.rows, rep.errMsg, want)
	}
	return nil
}

// embeddedMix runs n statements of the served mix directly on the engine,
// each under its own root span.
func (l *live) embeddedMix(tr *tracer, n int, opTimes map[string]time.Duration) error {
	st := newSessionState(l.sp.serve, len(l.sessions), nil)
	for i := 0; i < n; i++ {
		sql, _ := st.statement(st.nextClass())
		root := tr.start("probe.mix_stmt", nil)
		_, err := l.eng.runTraced(tr, root, sql, opTimes)
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- runs ----

func runWorkload(cfg runConfig) (*runResult, error) {
	b, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := fullSizes
	if cfg.tiny {
		sz = tinySizes
	}
	sp, err := b.build(cfg.seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: building inputs: %w", cfg.workload, err)
	}
	if cfg.traced {
		return runTraced(sp, cfg)
	}
	return runUntraced(sp, cfg)
}

// add folds a block's op counts into the result.
func (r *runResult) add(b *block) {
	r.attempted += b.attempted
	r.failed += b.failed
	if r.firstErr == nil {
		r.firstErr = b.firstErr
	}
}

// addInsertCheck counts, for a served workload, the check that every insert
// landed as one more op.
func (r *runResult) addInsertCheck(l *live) {
	if l.sp.serve == nil {
		return
	}
	r.attempted++
	if err := l.checkInserts(); err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// runUntraced measures the end-to-end metrics with no tracing anywhere.
func runUntraced(sp *spec, cfg runConfig) (res *runResult, err error) {
	var l *live
	defer func() {
		if l != nil {
			err = errors.Join(err, l.tearDown())
		}
	}()
	var setups []float64
	for i := 0; i < sp.setupReps; i++ {
		if l != nil {
			if err := l.tearDown(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		start := time.Now()
		if l, err = setUp(sp, cfg.tmpDir, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	// The ops run in rssStretches stretches, each with its own resident-set
	// high-water mark: the process-wide mark is the maximum over a hundred
	// ops' worth of collector timing and moves far more between identical
	// runs than the median of the stretches' marks does.
	b := &block{}
	var peaks []float64
	processWide := false
	for i := 0; i < rssStretches; i++ {
		if err := resetPeakRSS(); err != nil {
			processWide = true // every stretch then reads the process-wide mark
		}
		part := l.measure(untilElapsed(time.Duration(cfg.seconds/rssStretches*float64(time.Second))), nil, nil)
		b.merge(part)
		b.wall += part.wall
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
	}
	res = &runResult{samples: len(b.lats), setupReps: len(setups), rssProcessWide: processWide, metrics: map[string]float64{}}
	res.add(b)
	res.addInsertCheck(l)
	res.metrics["lat_ms_p50"] = median(b.lats)
	res.metrics["lat_ms_p90"] = quantile(b.lats, 0.9)
	res.metrics["ops_per_s"] = float64(b.verified()) / b.wall.Seconds()
	res.metrics["setup_s"] = median(setups)
	res.metrics["peak_rss_mb"] = median(peaks)
	return res, nil
}

// runTraced produces the per-layer metrics. A quarter of the time runs ops
// untraced (the base for trace.overhead_pct, and where counters and
// allocations are read, since tracing adds an encode per SELECT); just under
// half runs them traced; the rest goes to probes.
func runTraced(sp *spec, cfg runConfig) (res *runResult, err error) {
	l, err := setUp(sp, cfg.tmpDir, true)
	defer func() { err = errors.Join(err, l.tearDown()) }()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	res = &runResult{setupReps: 1, metrics: map[string]float64{}}
	m := res.metrics
	runtime.GC()

	// Untraced block.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, p0 := l.eng.counters(), l.eng.pool()
	var s0 serverCounters
	if l.srv != nil {
		s0 = l.srv.counters()
	}
	plain := l.measure(untilElapsed(total/4), nil, nil)
	runtime.ReadMemStats(&ms1)
	cd, p1 := l.eng.counters().sub(c0), l.eng.pool()
	res.add(plain)
	ops := float64(plain.attempted)

	m["exec.tuples_produced_per_op"] = float64(cd.tuplesProduced) / ops
	m["cluster.tuples_shuffled_per_op"] = float64(cd.tuplesShuffled) / ops
	m["cluster.bytes_shuffled_per_op"] = float64(cd.bytesShuffled) / ops
	m["cluster.shuffle_rounds_per_op"] = float64(cd.shuffleRounds) / ops
	m["cluster.broadcast_rounds_per_op"] = float64(cd.broadcastRounds) / ops
	m["cluster.task_retries_per_op"] = float64(cd.taskRetries) / ops
	m["spill.bytes_per_op"] = float64(cd.spillBytes) / ops
	m["spill.runs_per_op"] = float64(cd.spillRuns) / ops
	m["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops
	m["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
	m["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["storage.pool_hit_ratio"] = ratio(float64(p1.hits-p0.hits), float64(p1.hits-p0.hits+p1.misses-p0.misses))
	m["storage.pool_misses_per_op"] = float64(p1.misses-p0.misses) / ops
	m["storage.evictions_per_op"] = float64(p1.evictions-p0.evictions) / ops
	m["storage.writebacks"] = float64(p1.writebacks)
	m["storage.pool_peak_mb"] = float64(p1.peakBytes) / 1e6
	m["core.load_rows_per_s"] = ratio(float64(l.loadRows), l.loadSeconds)
	if l.dep.dataDir != "" {
		m["storage.load_rows_per_s"] = m["core.load_rows_per_s"]
	}
	if l.srv != nil {
		s1 := l.srv.counters()
		for c, name := range classNames {
			m["serve.lat_ms_p50."+name] = median(plain.classLats[c])
			m["serve.lat_ms_p90."+name] = quantile(plain.classLats[c], 0.9)
		}
		m["serve.lat_ms_p99"] = quantile(plain.lats, 0.99)
		hits, misses := float64(s1.cacheHits-s0.cacheHits), float64(s1.cacheMisses-s0.cacheMisses)
		m["serve.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
		m["serve.admission_waits"] = float64(s1.admissionWaits - s0.admissionWaits)
		m["serve.peak_concurrent"] = float64(s1.peakConcurrent)
		m["serve.statement_errors"] = float64(s1.statementErrors)
		m["serve.reply_bytes_per_op"] = float64(plain.replyBytes) / ops
	}

	// Traced block.
	epoch := time.Now()
	trs := make([]*tracer, max(len(l.sessions), 1))
	for i := range trs {
		trs[i] = newTracer(epoch)
	}
	opTimes := map[string]time.Duration{}
	rw0 := l.eng.rewrites.Total()
	traced := l.measure(untilElapsed(total*9/20), trs, opTimes)
	res.add(traced)
	res.addInsertCheck(l)
	res.samples = len(plain.lats) + len(traced.lats)
	plainP50, tracedP50 := median(plain.lats), median(traced.lats)
	m["trace.overhead_pct"] = (tracedP50 - plainP50) / plainP50 * 100

	budget := total * 3 / 100 // per probe
	spans := mergeTracers(trs...)
	totals, stmtOps := selfTimes(spans), float64(traced.attempted)
	if l.srv != nil {
		m["serve.wire_send_us_per_op"] = float64(totals["wire.send"].selfNs) / 1e3 / stmtOps
		m["serve.server_wait_us_per_op"] = float64(totals["server.wait"].selfNs) / 1e3 / stmtOps
		m["serve.recv_decode_us_per_op"] = float64(totals["wire.recv_decode"].selfNs) / 1e3 / stmtOps
		m["serve.frame_mb_s"] = probeFrames(max(int(m["serve.reply_bytes_per_op"]), 1), budget)
		// A served statement runs inside the server, out of the harness's
		// sight. The same mix run embedded, statement by statement through
		// the layers' seams, gives the parse/plan/optimize/execute split;
		// for these metrics an "op" is one statement.
		n := 200
		if cfg.tiny {
			n = 40
		}
		dtr := newTracer(epoch)
		if err := l.embeddedMix(dtr, n, opTimes); err != nil {
			return nil, fmt.Errorf("%s: embedded statement probe: %w", sp.name, err)
		}
		spans = mergeTracers(append(trs, dtr)...)
		totals, stmtOps = selfTimes(dtr.spans), float64(n)
	}
	perStmt := func(name string) float64 {
		return ratio(float64(totals[name].selfNs)/1e3, float64(totals[name].count))
	}
	perOpMs := func(ns int64) float64 { return float64(ns) / 1e6 / stmtOps }
	m["sqlparse.parse_us_per_stmt"] = perStmt("parse")
	m["plan.build_us_per_stmt"] = perStmt("build")
	m["opt.optimize_us_per_stmt"] = perStmt("optimize")
	m["opt.rewrites_fired_per_op"] = float64(l.eng.rewrites.Total()-rw0) / stmtOps
	execNs, ctasNs := totals["execute"].selfNs, totals["ctas"].selfNs
	m["exec.execute_ms_per_op"] = perOpMs(execNs)
	m["exec.join_ms_per_op"] = perOpMs(int64(opTimes["join"]))
	m["exec.aggregate_ms_per_op"] = perOpMs(int64(opTimes["aggregate"]))
	m["exec.agg_shuffle_ms_per_op"] = perOpMs(int64(opTimes["aggregate-shuffle"]))
	m["exec.scan_ms_per_op"] = perOpMs(int64(opTimes["scan"] + opTimes["pipeline"]))
	m["exec.project_filter_ms_per_op"] = perOpMs(int64(opTimes["project"] + opTimes["filter"] + opTimes["limit"]))
	m["exec.sort_ms_per_op"] = perOpMs(int64(opTimes["sort"]))
	m["spill.spill_ms_per_op"] = perOpMs(int64(opTimes["spill"]))
	// CTAS reads base tables too, and core gives no seam between its query
	// and its write, so its whole time counts as time spent on input rows.
	m["exec.input_rows_per_s"] = ratio(sp.inputRows*stmtOps, float64(execNs+ctasNs)/1e9)
	m["core.ctas_ms_per_op"] = perOpMs(ctasNs)
	m["core.ddl_ms_per_op"] = perOpMs(totals["ddl"].selfNs + totals["insert"].selfNs)
	m["value.result_encode_us_per_op"] = float64(totals["encode"].selfNs) / 1e3 / stmtOps
	if err := writeTrace(filepath.Join(cfg.outDir, sp.name+".trace.json"), sp.name, cfg.seed, spans); err != nil {
		return nil, err
	}

	// Probes.
	main := sp.tables[0].rows
	m["value.encode_mb_s"], m["value.decode_mb_s"] = probeCodec(main[:min(len(main), 4096)], budget)
	workers := runtime.NumCPU()
	w1 := probeMatmul(sp.probeRows, sp.probeDim, 1, budget)
	wn := probeMatmul(sp.probeRows, sp.probeDim, workers, budget)
	m["linalg.matmul_gflops_w1"], m["linalg.matmul_gflops_wn"] = w1, wn
	m["linalg.matmul_scaling_eff"] = wn / w1 / float64(workers)
	m["linalg.outer_acc_gflops"] = probeOuterAcc(sp.probeDim, budget)
	m["linalg.matvec_gflops"] = probeMatvec(sp.probeDim, budget)
	m["linalg.flops_per_op"] = sp.flopsPerOp
	rate := map[string]float64{"matmul": w1, "outer": m["linalg.outer_acc_gflops"], "matvec": m["linalg.matvec_gflops"]}[sp.kernel]
	// Partitions run on every core, the probe on one: the share is of the
	// CPU time the op had, not of its wall time.
	m["linalg.kernel_share"] = ratio(ratio(sp.flopsPerOp, rate*1e9), plainP50/1e3*float64(workers))
	if l.dep.dataDir != "" {
		m["storage.scan_rows_per_s"] = ratio(float64(len(sp.tables[0].rows))*float64(traced.attempted), float64(l.stmtNs[0])/1e9)
		if err := l.storageProbes(m); err != nil {
			return nil, fmt.Errorf("%s: storage probes: %w", sp.name, err)
		}
	}
	return res, nil
}

// medianSeconds runs f reps times and returns the median duration.
func medianSeconds(reps int, f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// storageProbes measures the persistent store beside the ops: space on disk,
// a durable append, a restart, the same data with a pool it fits in, and the
// join without the memory budget that makes it spill. It reopens the
// workload's data directory several times and leaves l.eng on the last one.
func (l *live) storageProbes(m map[string]float64) error {
	sp := l.sp
	var userBytes int64
	for _, t := range sp.tables {
		userBytes += encodedSize(t.rows)
	}
	var diskBytes int64
	err := filepath.WalkDir(l.dep.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		diskBytes += info.Size()
		return err
	})
	if err != nil {
		return err
	}
	m["storage.space_amp"] = float64(diskBytes) / float64(userBytes)

	// A 1 000-row append: coerce, page writes, fsync, journal record.
	head := sp.tables[0].rows[:min(1000, len(sp.tables[0].rows))]
	if err := l.eng.exec("CREATE TABLE probe_append (id INTEGER, grp INTEGER, v VECTOR[])"); err != nil {
		return err
	}
	sec, err := medianSeconds(3, func() error { return l.eng.load("probe_append", head) })
	if err != nil {
		return err
	}
	m["storage.append_mb_s"] = float64(encodedSize(head)) / 1e6 / sec
	if err := l.eng.exec("DROP TABLE probe_append"); err != nil {
		return err
	}

	// reopen closes the engine and opens the same directory again under d;
	// it returns how long the open took.
	reopen := func(d deployment) (time.Duration, error) {
		err := l.eng.close()
		l.eng = nil
		if err != nil {
			return 0, err
		}
		start := time.Now()
		l.eng, err = openEngine(d)
		return time.Since(start), err
	}
	runStmt := func(i int) func() error {
		return func() error { _, err := l.eng.run(sp.script[i]); return err }
	}
	opened, err := reopen(l.dep)
	if err != nil {
		return err
	}
	m["storage.reopen_ms"] = float64(opened) / 1e6

	budgeted, err := medianSeconds(3, runStmt(1))
	if err != nil {
		return err
	}
	unlimited := l.dep
	unlimited.memoryBudget = 0
	if _, err := reopen(unlimited); err != nil {
		return err
	}
	free, err := medianSeconds(3, runStmt(1))
	if err != nil {
		return err
	}
	m["spill.slowdown_x"] = budgeted / free

	roomy := l.dep
	roomy.poolBytes = 0 // the engine's default pool, which this table fits in
	if _, err := reopen(roomy); err != nil {
		return err
	}
	if err := runStmt(0)(); err != nil { // fill the pool
		return err
	}
	warm, err := medianSeconds(3, runStmt(0))
	if err != nil {
		return err
	}
	m["storage.scan_rows_per_s_warm"] = float64(len(sp.tables[0].rows)) / warm
	return nil
}
