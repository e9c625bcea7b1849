// Package core is the engine's public face: a parallel relational database
// extended with the paper's LABELED_SCALAR, VECTOR and MATRIX column types,
// the linear-algebra built-ins and conversion aggregates, and a cost-based
// optimizer that understands linear-algebra object sizes. It ties together
// the catalog, planner, optimizer, executor, and cluster simulator.
//
// Typical use:
//
//	db := core.Open(core.DefaultConfig())
//	db.MustExec(`CREATE TABLE x (id INTEGER, val VECTOR[])`)
//	db.LoadTable("x", rows)
//	res, err := db.Query(`SELECT SUM(outer_product(val, val)) FROM x`)
package core

import (
	"fmt"
	"strings"
	"sync"

	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/exec"
	"relalg/internal/linalg"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/sqlparse"
	"relalg/internal/storage"
	"relalg/internal/types"
	"relalg/internal/value"
)

// Config assembles the engine's tunables.
type Config struct {
	Cluster   cluster.Config
	Optimizer opt.Options
	// DisableAggFusion reverts SUM(outer_product)/SUM(matrix_multiply) to
	// unfused per-row evaluation (2017-SimSQL behaviour); see exec.Context.
	DisableAggFusion bool
	// DataDir, when non-empty, opens persistent paged storage at that
	// directory: tables live in checksummed page files behind a buffer
	// pool and survive restarts bit-identically. Empty (the default)
	// keeps all tables in memory. Persistent databases should be opened with
	// OpenData (Open panics on storage errors) and released with Close.
	DataDir string
	// BufferPoolBytes bounds the storage buffer pool when DataDir is set;
	// 0 means storage.DefaultPoolBytes.
	BufferPoolBytes int64
	// PageBytes is the storage page slot size when DataDir is set; 0 means
	// storage.DefaultPageBytes for a fresh directory, and an existing
	// directory's manifest always wins.
	PageBytes int
	// ReplanFactor enables adaptive mid-query re-optimization: when the
	// observed cardinality of a join region's input diverges from its
	// estimate by more than this factor (either direction), the region's
	// join order is re-derived with the materialized inputs pinned. 0 (the
	// default) or any value <= 1 disables adaptivity. Re-plans are counted
	// in cluster Stats.Replans.
	ReplanFactor float64
}

// DefaultConfig simulates the paper's 10-node cluster with the full
// optimizer enabled.
func DefaultConfig() Config {
	return Config{
		Cluster:   cluster.DefaultConfig(),
		Optimizer: opt.DefaultOptions(),
	}
}

// Database is one engine instance. It is safe for concurrent reads; DDL and
// loads take an exclusive lock.
type Database struct {
	cfg Config
	cat *catalog.Catalog
	cl  *cluster.Cluster

	// store is the persistent paged store (nil for in-memory databases).
	// When set, db.tables is unused: all table data lives in the store.
	store *storage.Store

	mu     sync.RWMutex
	tables map[string][][]value.Row
	nextRR map[string]int // round-robin insert cursor per table
}

// Open creates a database. It panics when Config.DataDir is set and the
// store fails to open; persistent callers should use OpenData and handle
// the error.
func Open(cfg Config) *Database {
	return mustOpen(OpenData(cfg))
}

// mustOpen is Open's panicking error funnel. With an empty DataDir OpenData
// cannot fail, so in-memory callers never see the panic.
func mustOpen(db *Database, err error) *Database {
	if err != nil {
		panic(err)
	}
	return db
}

// OpenData creates a database, opening the persistent paged store when
// cfg.DataDir is set and replaying the catalog from its journaled metadata.
// It fails fast when the directory is unwritable, locked by another process,
// or was written with an incompatible format version or page size.
func OpenData(cfg Config) (*Database, error) {
	db := &Database{
		cfg:    cfg,
		cat:    catalog.New(),
		cl:     cluster.New(cfg.Cluster),
		tables: map[string][][]value.Row{},
		nextRR: map[string]int{},
	}
	if cfg.DataDir == "" {
		return db, nil
	}
	st, err := storage.Open(cfg.DataDir, storage.Options{
		PageBytes:  cfg.PageBytes,
		PoolBytes:  cfg.BufferPoolBytes,
		WriteFault: db.cl.StorageWriteFault,
	})
	if err != nil {
		return nil, err
	}
	db.store = st
	if err := db.replayCatalog(); err != nil {
		_ = st.Close()
		return nil, err
	}
	return db, nil
}

// Close releases the persistent store, if any. Committed data is already
// durable; like a crash, any uncommitted appends are discarded.
func (db *Database) Close() error {
	if db.store != nil {
		return db.store.Close()
	}
	return nil
}

// Store exposes the persistent store (nil for in-memory databases); the
// serving layer and benchmarks read buffer-pool stats from it.
func (db *Database) Store() *storage.Store { return db.store }

// Catalog exposes the metadata registry.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Cluster exposes the simulated cluster (stats, budget).
func (db *Database) Cluster() *cluster.Cluster { return db.cl }

// Result is the outcome of one SELECT (or EXPLAIN).
type Result struct {
	Schema  plan.Schema
	Rows    []value.Row
	Timings *exec.Timings
	Stats   cluster.StatsSnapshot
}

// Run parses and executes a single SQL statement. DDL and INSERT return a
// nil Result.
func (db *Database) Run(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.runStmt(stmt, Resources{})
}

// RunScript executes a semicolon-separated script, returning the results of
// every SELECT/EXPLAIN in order.
func (db *Database) RunScript(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range stmts {
		res, err := db.runStmt(stmt, Resources{})
		if err != nil {
			return out, err
		}
		if res != nil {
			out = append(out, res)
		}
	}
	return out, nil
}

// Exec runs a statement for its side effects, failing if it returns rows.
func (db *Database) Exec(sql string) error {
	_, err := db.Run(sql)
	return err
}

// MustExec is Exec for setup code paths; it panics on error.
func (db *Database) MustExec(sql string) {
	if err := db.Exec(sql); err != nil {
		panic(err)
	}
}

// Query runs a single SELECT.
func (db *Database) Query(sql string) (*Result, error) {
	res, err := db.Run(sql)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("core: statement produced no result set")
	}
	return res, nil
}

// Resources is a per-query resource lease. The serving layer hands each
// statement a share of the memory budget; the zero value inherits the
// database configuration (the single-caller behaviour). A query's parallelism
// is the cluster's partition slots, so the lease has no CPU share.
type Resources struct {
	// MemoryBudgetBytes caps the query's in-memory working set before
	// operators spill. 0 inherits cluster.Config.MemoryBudgetBytes; a
	// negative value means explicitly unlimited (never spill).
	MemoryBudgetBytes int64
}

// memBudget resolves the lease's spill budget against the config.
func (db *Database) memBudget(r Resources) int64 {
	switch {
	case r.MemoryBudgetBytes < 0:
		return 0 // spill.NewManager treats <= 0 as "no budget"
	case r.MemoryBudgetBytes == 0:
		return db.cfg.Cluster.MemoryBudgetBytes
	default:
		return r.MemoryBudgetBytes
	}
}

// RunParsed executes one already-parsed statement under a resource lease.
// It is the serving layer's entry point: parsing happened at the protocol
// boundary and the lease came from the server's admission controller.
func (db *Database) RunParsed(stmt sqlparse.Statement, rsrc Resources) (*Result, error) {
	return db.runStmt(stmt, rsrc)
}

func (db *Database) runStmt(stmt sqlparse.Statement, rsrc Resources) (*Result, error) {
	switch x := stmt.(type) {
	case *sqlparse.CreateTable:
		return nil, db.createTable(x)
	case *sqlparse.CreateTableAs:
		return nil, db.createTableAs(x, rsrc)
	case *sqlparse.CreateView:
		return nil, db.createView(x)
	case *sqlparse.Insert:
		return nil, db.insert(x)
	case *sqlparse.DropTable:
		return nil, db.drop(x)
	case *sqlparse.Select:
		return db.query(x, rsrc)
	case *sqlparse.Explain:
		sel, ok := x.Stmt.(*sqlparse.Select)
		if !ok {
			return nil, fmt.Errorf("core: EXPLAIN supports SELECT only")
		}
		text, err := db.explain(sel)
		if err != nil {
			return nil, err
		}
		if x.Analyze {
			res, err := db.query(sel, rsrc)
			if err != nil {
				return nil, err
			}
			text += fmt.Sprintf("-- executed: %d rows; %s\n", len(res.Rows), res.Stats)
			for _, label := range res.Timings.Labels() {
				text += fmt.Sprintf("--   %-18s %v\n", label, res.Timings.Get(label))
			}
		}
		var rows []value.Row
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			rows = append(rows, value.Row{value.String_(line)})
		}
		return &Result{
			Schema: plan.Schema{{Name: "plan", T: types.TString}},
			Rows:   rows,
		}, nil
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

func (db *Database) createTable(ct *sqlparse.CreateTable) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cols := make([]catalog.Column, len(ct.Cols))
	seen := map[string]bool{}
	for i, c := range ct.Cols {
		if seen[c.Name] {
			return fmt.Errorf("core: duplicate column %q in table %q", c.Name, ct.Name)
		}
		seen[c.Name] = true
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	meta := &catalog.TableMeta{Name: ct.Name, Schema: catalog.Schema{Cols: cols}, PartitionCol: ct.PartitionCol}
	if err := db.cat.CreateTable(meta); err != nil {
		return err
	}
	return db.registerTableLocked(meta)
}

// createTableAs materializes a query result as a new table (CREATE TABLE
// ... AS SELECT), inferring the schema from the query's output types.
func (db *Database) createTableAs(ct *sqlparse.CreateTableAs, rsrc Resources) error {
	res, err := db.query(ct.Query, rsrc)
	if err != nil {
		return err
	}
	cols := make([]catalog.Column, len(res.Schema))
	// Every output name is taken up front, so a repeated name gets the first
	// free _k suffix and never steals a name another column carries.
	taken := map[string]bool{}
	for i, f := range res.Schema {
		cols[i].Name = f.Name
		if f.Name == "" {
			cols[i].Name = fmt.Sprintf("col%d", i)
		}
		taken[cols[i].Name] = true
	}
	seen := map[string]bool{}
	for i, f := range res.Schema {
		if f.T.Base == types.Any || f.T.Base == types.Invalid {
			return fmt.Errorf("core: column %q of CREATE TABLE AS has no concrete type", f.Name)
		}
		name := cols[i].Name
		if seen[name] {
			base := name
			for k := 1; taken[name]; k++ {
				name = fmt.Sprintf("%s_%d", base, k)
			}
			taken[name] = true
		}
		seen[name] = true
		cols[i] = catalog.Column{Name: name, Type: f.T}
	}
	meta := &catalog.TableMeta{Name: ct.Name, Schema: catalog.Schema{Cols: cols}}
	db.mu.Lock()
	if err := db.cat.CreateTable(meta); err != nil {
		db.mu.Unlock()
		return err
	}
	if err := db.registerTableLocked(meta); err != nil {
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	if err := db.appendRows(meta.Name, res.Rows); err != nil {
		return err
	}
	return db.analyze(meta)
}

func (db *Database) createView(cv *sqlparse.CreateView) error {
	// Type-check the definition now so errors surface at CREATE VIEW time.
	if _, err := plan.NewBuilder(db.cat).BuildSelect(cv.Query); err != nil {
		return fmt.Errorf("core: invalid view %q: %w", cv.Name, err)
	}
	return db.cat.CreateView(&catalog.ViewMeta{Name: cv.Name, Cols: cv.Cols, Query: cv.Query})
}

func (db *Database) insert(ins *sqlparse.Insert) error {
	meta, ok := db.cat.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %q", ins.Table)
	}
	b := plan.NewBuilder(db.cat)
	rows := make([]value.Row, 0, len(ins.Rows))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != meta.Schema.Arity() {
			return fmt.Errorf("core: INSERT supplies %d values for %d columns", len(exprRow), meta.Schema.Arity())
		}
		row := make(value.Row, len(exprRow))
		for i, e := range exprRow {
			compiled, err := b.BuildValueExpr(e)
			if err != nil {
				return err
			}
			v, err := plan.EvalRow(compiled, nil)
			if err != nil {
				return err
			}
			cv, err := coerce(v, meta.Schema.Cols[i].Type)
			if err != nil {
				return fmt.Errorf("core: column %q: %w", meta.Schema.Cols[i].Name, err)
			}
			row[i] = cv
		}
		rows = append(rows, row)
	}
	return db.appendRows(meta.Name, rows)
}

// LoadTable bulk-loads rows into a table, validating and coercing each value
// against the declared column types, distributing round-robin across the
// cluster, and refreshing catalog statistics (row count and per-column
// distinct estimates for scalar columns).
func (db *Database) LoadTable(name string, rows []value.Row) error {
	meta, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("core: unknown table %q", name)
	}
	checked := make([]value.Row, len(rows))
	for ri, r := range rows {
		if len(r) != meta.Schema.Arity() {
			return fmt.Errorf("core: row %d has %d values for %d columns", ri, len(r), meta.Schema.Arity())
		}
		nr := make(value.Row, len(r))
		for i, v := range r {
			cv, err := coerce(v, meta.Schema.Cols[i].Type)
			if err != nil {
				return fmt.Errorf("core: row %d column %q: %w", ri, meta.Schema.Cols[i].Name, err)
			}
			nr[i] = cv
		}
		checked[ri] = nr
	}
	if err := db.appendRows(meta.Name, checked); err != nil {
		return err
	}
	return db.analyze(meta)
}

func (db *Database) appendRows(name string, rows []value.Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store != nil {
		return db.appendStoredLocked(name, rows)
	}
	parts := db.tables[name]
	if parts == nil {
		parts = make([][]value.Row, db.cl.Partitions())
	}
	for d, b := range db.placeLocked(name, rows, len(parts)) {
		if len(parts[d]) == 0 {
			parts[d] = b
		} else {
			parts[d] = append(parts[d], b...)
		}
	}
	db.tables[name] = parts
	db.cat.AddRowCount(name, int64(len(rows)))
	return nil
}

// placeLocked buckets rows over a table's nparts partitions, in both stores.
// Declared hash partitioning places each row by its partition-column hash
// (the hash the executor's shuffles use), so scans come out already
// co-located for joins and groupings on that column; any other table is
// dealt round-robin from its cursor, which advances. Callers hold db.mu.
func (db *Database) placeLocked(name string, rows []value.Row, nparts int) [][]value.Row {
	buckets := make([][]value.Row, nparts)
	if meta, _ := db.cat.Table(name); meta != nil && meta.PartitionCol != "" {
		if idx := meta.Schema.IndexOf(meta.PartitionCol); idx >= 0 {
			key := []int{idx}
			for _, r := range rows {
				d := int(value.HashRowKey(r, key) % uint64(nparts))
				buckets[d] = append(buckets[d], r)
			}
			return buckets
		}
	}
	cursor := db.nextRR[name]
	for _, r := range rows {
		buckets[cursor%nparts] = append(buckets[cursor%nparts], r)
		cursor++
	}
	db.nextRR[name] = cursor
	return buckets
}

// analyze recomputes per-column distinct estimates for scalar columns and,
// for persistent tables, journals the refreshed statistics so they survive
// restarts.
func (db *Database) analyze(meta *catalog.TableMeta) error {
	const distinctCap = 1 << 20
	var cols []int
	for ci, col := range meta.Schema.Cols {
		switch col.Type.Base {
		case types.Int, types.Double, types.String, types.Bool:
			cols = append(cols, ci)
		}
	}
	if len(cols) > 0 {
		seen := make([]map[string]struct{}, len(cols))
		for i := range seen {
			seen[i] = map[string]struct{}{}
		}
		tb, err := db.OpenTable(meta.Name)
		if err != nil {
			return err
		}
		for part := 0; part < tb.Parts(); part++ {
			if err := tb.ScanPart(part, func(rows []value.Row) error {
				for _, r := range rows {
					for i, ci := range cols {
						if len(seen[i]) < distinctCap {
							seen[i][r[ci].String()] = struct{}{}
						}
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		for i, ci := range cols {
			db.cat.SetDistinct(meta.Name, meta.Schema.Cols[ci].Name, float64(len(seen[i])))
		}
	}
	if db.store != nil {
		return db.persistMetaBlob(meta)
	}
	return nil
}

// coerce fits a runtime value to a declared column type.
func coerce(v value.Value, decl types.T) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch decl.Base {
	case types.Int:
		if v.Kind == value.KindInt {
			return v, nil
		}
	case types.Double:
		switch v.Kind {
		case value.KindDouble:
			return v, nil
		case value.KindInt:
			return value.Double(float64(v.I)), nil
		case value.KindLabeledScalar:
			return value.Double(v.D), nil
		}
	case types.String:
		if v.Kind == value.KindString {
			return v, nil
		}
	case types.Bool:
		if v.Kind == value.KindBool {
			return v, nil
		}
	case types.LabeledScalar:
		switch v.Kind {
		case value.KindLabeledScalar:
			return v, nil
		case value.KindDouble:
			return value.LabeledScalar(v.D, -1), nil
		case value.KindInt:
			return value.LabeledScalar(float64(v.I), -1), nil
		}
	case types.Vector:
		if v.Kind == value.KindVector {
			if d := decl.Dims[0]; d.Known && v.Vec.Len() != d.N {
				return value.Null(), fmt.Errorf("vector has %d entries, column declares %d", v.Vec.Len(), d.N)
			}
			return v, nil
		}
	case types.Matrix:
		if v.Kind == value.KindMatrix {
			if d := decl.Dims[0]; d.Known && v.Mat.Rows != d.N {
				return value.Null(), fmt.Errorf("matrix has %d rows, column declares %d", v.Mat.Rows, d.N)
			}
			if d := decl.Dims[1]; d.Known && v.Mat.Cols != d.N {
				return value.Null(), fmt.Errorf("matrix has %d cols, column declares %d", v.Mat.Cols, d.N)
			}
			return v, nil
		}
	}
	return value.Null(), fmt.Errorf("cannot store %s in %s column", v.Kind, decl)
}

func (db *Database) drop(d *sqlparse.DropTable) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := strings.ToLower(d.Name)
	// Drop the storage before the catalog entry: if the store is poisoned
	// the table stays visible, matching what a reopen will recover. Views
	// have no storage.
	_, isTable := db.cat.Table(name)
	if db.store != nil && isTable {
		if err := db.store.DropTable(name); err != nil {
			return err
		}
	}
	if !db.cat.Drop(name) {
		if d.IfExists {
			return nil
		}
		return fmt.Errorf("core: unknown table or view %q", d.Name)
	}
	delete(db.tables, name)
	delete(db.nextRR, name)
	return nil
}

// Plan compiles and optimizes a SELECT without running it.
func (db *Database) Plan(sel *sqlparse.Select) (plan.Node, error) {
	logical, err := plan.NewBuilder(db.cat).BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	return opt.New(db.cfg.Optimizer).Optimize(logical)
}

func (db *Database) explain(sel *sqlparse.Select) (string, error) {
	optimized, err := db.Plan(sel)
	if err != nil {
		return "", err
	}
	return plan.Explain(optimized), nil
}

// Explain returns the optimized plan text for a SELECT statement.
func (db *Database) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return "", fmt.Errorf("core: EXPLAIN supports SELECT only")
	}
	return db.explain(sel)
}

func (db *Database) query(sel *sqlparse.Select, rsrc Resources) (*Result, error) {
	optimized, err := db.Plan(sel)
	if err != nil {
		return nil, err
	}
	return db.ExecutePlanned(optimized, rsrc)
}

// ExecutePlanned executes an already-optimized plan under a resource lease.
// Plans are immutable during execution, so the serving layer's plan cache
// may hand the same node tree to many concurrent callers. The statement runs
// on its own view of the cluster, so its Result.Stats and its
// MaxIntermediateTuples budget are its own however many statements run at
// once; the view's counters join the database's cumulative Stats when it
// returns, on the error path too.
func (db *Database) ExecutePlanned(optimized plan.Node, rsrc Resources) (res *Result, err error) {
	cl := db.cl.Statement()
	defer cl.End()
	timings := exec.NewTimings()
	// One spill manager (and so one temp directory and one memory budget)
	// covers the whole query, subqueries included; its Close at return sweeps
	// every run file the operators created.
	mgr := spill.NewManager(db.memBudget(rsrc), spill.Hooks{
		TrackIO:    func() func() { return timings.Track("spill") },
		WriteFault: cl.SpillWriteFault,
	})
	defer func() {
		if cerr := mgr.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	ctx := &exec.Context{
		Cluster:          cl,
		Tables:           db,
		Timings:          timings,
		Spill:            mgr,
		DisableAggFusion: db.cfg.DisableAggFusion,
	}
	if db.cfg.ReplanFactor > 1 {
		replanner := opt.New(db.cfg.Optimizer)
		ctx.Adaptive = &exec.Adaptive{
			Factor:   db.cfg.ReplanFactor,
			Estimate: opt.EstimateRows,
			Replan:   replanner.Replan,
		}
	}
	resolved, err := db.resolveSubqueries(ctx, optimized)
	if err != nil {
		return nil, err
	}
	rel, err := exec.Run(ctx, resolved)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schema:  rel.Schema,
		Rows:    rel.Rows(),
		Timings: timings,
		Stats:   cl.Stats().Snapshot(),
	}, nil
}

// OpenTable implements exec.TableSource. A stored table is its own handle;
// an in-memory table is a snapshot of its partition slices taken under the
// read lock, so a concurrent append never writes into rows a scan reads.
func (db *Database) OpenTable(name string) (exec.Table, error) {
	name = strings.ToLower(name)
	if db.store != nil {
		if tb, ok := db.store.Table(name); ok {
			return tb, nil
		}
	} else {
		db.mu.RLock()
		parts, ok := db.tables[name]
		snap := append(exec.MemTable(nil), parts...)
		db.mu.RUnlock()
		if ok {
			return snap, nil
		}
	}
	return nil, fmt.Errorf("core: table %q has no storage", name)
}

// VectorValue is a convenience constructor for building load batches.
func VectorValue(entries ...float64) value.Value {
	return value.Vector(linalg.VectorOf(entries...))
}

// MatrixValue is a convenience constructor for building load batches.
func MatrixValue(rows [][]float64) (value.Value, error) {
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		return value.Null(), err
	}
	return value.Matrix(m), nil
}
