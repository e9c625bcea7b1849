package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"relalg/internal/core"
	"relalg/internal/opt"
	"relalg/internal/value"
)

// The optimizer sweep measures the LA-aware rewrite layer: each query runs on
// two databases that differ only in Optimizer.Rewrites, and the rewritten
// leg's rows must be byte-identical (EncodeRows) to the unrewritten leg's.
// The swept queries are matrix chains whose cheapest association differs from
// the written one, so chain reordering shows up directly as a FLOP-count
// speedup rather than an executor micro-win. A final adaptive leg seeds a
// grossly wrong catalog statistic and verifies that mid-query re-optimization
// fires (Stats.Replans > 0) without changing the result.

// resultBytes is the identity fingerprint: schema text plus the EncodeRows
// codec bytes, so NaN payloads and signed zeros participate in equality.
func resultBytes(res *core.Result) []byte {
	return append([]byte(res.Schema.String()+"\n"), value.EncodeRows(res.Rows)...)
}

// OptConfig sizes the optimizer sweep.
type OptConfig struct {
	ChainRows int // rows in the chain table
	ChainN    int // a and b are N x N; c is N x K
	ChainK    int
	GramRows  int // rows in the gram table
	GramN     int // m is N x N; w is N x K
	GramK     int
	AdaptRows int // big-table rows for the adaptive leg
	Nodes     int
	PerNode   int
	Reps      int // timing repetitions; the minimum is reported
	Seed      int64
	// MinSpeedup is the required rewritten-vs-baseline speedup for every
	// query; 0 disables the assertion (smoke runs are too short to time).
	MinSpeedup float64
}

// DefaultOptConfig is the committed-snapshot configuration. N/K are chosen so
// the written association costs ~N/(2K) times the optimal one (~24x FLOPs at
// 96/2), leaving plenty of headroom over the 2x acceptance floor.
func DefaultOptConfig() OptConfig {
	return OptConfig{
		ChainRows:  40,
		ChainN:     96,
		ChainK:     2,
		GramRows:   40,
		GramN:      96,
		GramK:      2,
		AdaptRows:  2000,
		Nodes:      2,
		PerNode:    2,
		Reps:       3,
		Seed:       1,
		MinSpeedup: 2.0,
	}
}

// SmokeOptConfig finishes in a couple of seconds; it still enforces result
// identity, fired rewrites, and a fired re-plan, but not the speedup floor.
func SmokeOptConfig() OptConfig {
	return OptConfig{
		ChainRows:  6,
		ChainN:     48,
		ChainK:     2,
		GramRows:   6,
		GramN:      48,
		GramK:      2,
		AdaptRows:  400,
		Nodes:      2,
		PerNode:    2,
		Reps:       1,
		Seed:       1,
		MinSpeedup: 0,
	}
}

// Validate rejects sweeps that cannot serve as an equivalence gate.
func (c OptConfig) Validate() error {
	if c.ChainRows <= 0 || c.ChainN <= 0 || c.ChainK <= 0 ||
		c.GramRows <= 0 || c.GramN <= 0 || c.GramK <= 0 ||
		c.AdaptRows <= 0 || c.Nodes <= 0 || c.PerNode <= 0 {
		return errors.New("bench: opt config sizes must be positive")
	}
	if c.Reps <= 0 {
		return errors.New("bench: reps must be positive")
	}
	if c.MinSpeedup < 0 {
		return errors.New("bench: min speedup must be non-negative")
	}
	return nil
}

// optQueries are the swept rewrite workloads. Both are three-matrix chains:
// the first is the classic (A·B)·C with a narrow C, the second the
// normal-equations Gram chain t(M)·M·w, where computing M·w first turns two
// N^3-ish multiplies into two N^2·K ones.
var optQueries = []struct {
	Name  string
	Query string
}{
	{"matrix_chain", "SELECT SUM(matrix_multiply(matrix_multiply(a, b), c)) AS s FROM chain"},
	{"gram_chain", "SELECT SUM(matrix_multiply(matrix_multiply(trans_matrix(m), m), w)) AS s FROM gram"},
}

// optSweepDB opens a database with rewrites on or off and loads the chain and
// gram tables. Entries are small integers, and every multiply in both the
// written and the reordered association accumulates its cells from +0, so the
// two associations are bit-identical, not merely close: integer-valued sums
// this size never round, and accumulation never produces a -0 cell.
func optSweepDB(cfg OptConfig, rewrites bool, st *opt.RewriteStats) (*core.Database, error) {
	dbcfg := core.DefaultConfig()
	dbcfg.Cluster.Nodes = cfg.Nodes
	dbcfg.Cluster.PartitionsPerNode = cfg.PerNode
	dbcfg.Optimizer.Rewrites = rewrites
	dbcfg.Optimizer.Stats = st
	db := core.Open(dbcfg)
	for _, stmt := range []string{
		fmt.Sprintf("CREATE TABLE chain (a MATRIX[%d][%d], b MATRIX[%d][%d], c MATRIX[%d][%d])",
			cfg.ChainN, cfg.ChainN, cfg.ChainN, cfg.ChainN, cfg.ChainN, cfg.ChainK),
		fmt.Sprintf("CREATE TABLE gram (m MATRIX[%d][%d], w MATRIX[%d][%d])",
			cfg.GramN, cfg.GramN, cfg.GramN, cfg.GramK),
	} {
		if err := db.Exec(stmt); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mat := func(rows, cols int) (value.Value, error) {
		cells := make([][]float64, rows)
		for r := range cells {
			cells[r] = make([]float64, cols)
			for c := range cells[r] {
				cells[r][c] = float64(rng.Intn(9) - 4)
			}
		}
		return core.MatrixValue(cells)
	}
	load := func(table string, n int, dims [][2]int) error {
		rows := make([]value.Row, n)
		for i := range rows {
			row := make(value.Row, len(dims))
			for j, d := range dims {
				v, err := mat(d[0], d[1])
				if err != nil {
					return err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return db.LoadTable(table, rows)
	}
	if err := load("chain", cfg.ChainRows, [][2]int{
		{cfg.ChainN, cfg.ChainN}, {cfg.ChainN, cfg.ChainN}, {cfg.ChainN, cfg.ChainK},
	}); err != nil {
		return nil, err
	}
	if err := load("gram", cfg.GramRows, [][2]int{
		{cfg.GramN, cfg.GramN}, {cfg.GramN, cfg.GramK},
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// optAdaptiveDB loads the adaptive leg's three-table join and then corrupts
// the catalog's distinct count for the filtered column so the optimizer
// under-estimates it ~1000x (every row passes the filter).
func optAdaptiveDB(cfg OptConfig, replanFactor float64) (*core.Database, error) {
	dbcfg := core.DefaultConfig()
	dbcfg.Cluster.Nodes = cfg.Nodes
	dbcfg.Cluster.PartitionsPerNode = cfg.PerNode
	dbcfg.ReplanFactor = replanFactor
	db := core.Open(dbcfg)
	for _, stmt := range []string{
		"CREATE TABLE big1 (id INTEGER, flag INTEGER)",
		"CREATE TABLE big2 (id INTEGER, v INTEGER)",
		"CREATE TABLE small (id INTEGER)",
	} {
		if err := db.Exec(stmt); err != nil {
			return nil, err
		}
	}
	mk := func(n int, second func(i int) int64) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i % 97)), value.Int(second(i))}
		}
		return rows
	}
	if err := db.LoadTable("big1", mk(cfg.AdaptRows, func(int) int64 { return 7 })); err != nil {
		return nil, err
	}
	if err := db.LoadTable("big2", mk(cfg.AdaptRows, func(i int) int64 { return int64(i) })); err != nil {
		return nil, err
	}
	small := make([]value.Row, 5)
	for i := range small {
		small[i] = value.Row{value.Int(int64(i))}
	}
	if err := db.LoadTable("small", small); err != nil {
		return nil, err
	}
	db.Catalog().SetDistinct("big1", "flag", 1000)
	return db, nil
}

// optAdaptiveQuery joins two same-size tables with a small one; the seeded
// mis-estimate makes the static plan join the two big tables first.
const optAdaptiveQuery = `SELECT COUNT(*) AS n FROM big1, big2, small ` +
	`WHERE big1.id = big2.id AND big2.id = small.id AND big1.flag = 7`

// OptResult is one query's rewritten-vs-baseline measurement.
type OptResult struct {
	Query            string  `json:"query"`
	BaselineSeconds  float64 `json:"baseline_seconds"`
	RewrittenSeconds float64 `json:"rewritten_seconds"`
	Speedup          float64 `json:"speedup"`
	RewritesFired    int64   `json:"rewrites_fired"`
	OutputRows       int     `json:"output_rows"`
}

// OptAdaptiveLeg records the adaptive re-optimization check.
type OptAdaptiveLeg struct {
	Replans    int64 `json:"replans"`
	OutputRows int   `json:"output_rows"`
}

// OptReport is the sweep outcome; it serializes to BENCH_opt.json.
type OptReport struct {
	GeneratedAt string         `json:"generated_at"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Workers     int            `json:"workers"`
	Reps        int            `json:"reps"`
	MinSpeedup  float64        `json:"min_speedup"`
	Rewrites    string         `json:"rewrites"`
	Results     []OptResult    `json:"results"`
	Adaptive    OptAdaptiveLeg `json:"adaptive"`
}

// JSON renders the report for BENCH_opt.json.
func (r *OptReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the report as a human-readable table.
func (r *OptReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Optimizer rewrite sweep (%d workers, min of %d reps, GOMAXPROCS=%d)\n",
		r.Workers, r.Reps, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-14s %14s %14s %9s %10s\n",
		"query", "baseline s", "rewritten s", "speedup", "rewrites")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-14s %14.4f %14.4f %8.2fx %10d\n",
			res.Query, res.BaselineSeconds, res.RewrittenSeconds, res.Speedup, res.RewritesFired)
	}
	fmt.Fprintf(&b, "rules fired: %s\n", r.Rewrites)
	fmt.Fprintf(&b, "adaptive leg: %d join regions re-planned under a seeded 1000x mis-estimate, %d rows, byte-identical\n",
		r.Adaptive.Replans, r.Adaptive.OutputRows)
	b.WriteString("every rewritten run matched the unrewritten baseline byte-for-byte\n")
	return b.String()
}

// RunOptSweep runs the sweep. It returns an error on any rewritten/baseline
// result divergence, if no rewrite rule fired on a swept query, if the
// adaptive leg fails to re-plan (or changes the result), or — when
// MinSpeedup > 0 — if any query's speedup falls below the floor.
func RunOptSweep(cfg OptConfig) (*OptReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &OptReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //lint:ignore nodeterminism the snapshot timestamp is report metadata, not simulation state
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     cfg.Nodes * cfg.PerNode,
		Reps:        cfg.Reps,
		MinSpeedup:  cfg.MinSpeedup,
	}
	baseDB, err := optSweepDB(cfg, false, nil)
	if err != nil {
		return nil, err
	}
	st := &opt.RewriteStats{}
	rwDB, err := optSweepDB(cfg, true, st)
	if err != nil {
		return nil, err
	}
	for _, q := range optQueries {
		// Untimed warm-up pass: checks identity and per-query fired rules.
		before := st.Total()
		baseRes, err := baseDB.Query(q.Query)
		if err != nil {
			return nil, fmt.Errorf("bench: opt sweep %s (baseline): %w", q.Name, err)
		}
		rwRes, err := rwDB.Query(q.Query)
		if err != nil {
			return nil, fmt.Errorf("bench: opt sweep %s (rewritten): %w", q.Name, err)
		}
		fired := st.Total() - before
		if fired == 0 {
			return nil, fmt.Errorf("bench: opt sweep %s: no rewrite rule fired", q.Name)
		}
		if !bytes.Equal(resultBytes(baseRes), resultBytes(rwRes)) {
			return nil, fmt.Errorf("bench: opt sweep %s: rewritten results diverge from baseline", q.Name)
		}
		baseSec, rwSec, err := bestOfPair(cfg.Reps,
			func() error {
				_, err := baseDB.Query(q.Query)
				return err
			},
			func() error {
				_, err := rwDB.Query(q.Query)
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("bench: opt sweep %s: %w", q.Name, err)
		}
		speedup := baseSec / rwSec
		if cfg.MinSpeedup > 0 && speedup < cfg.MinSpeedup {
			return nil, fmt.Errorf("bench: opt sweep %s: speedup %.2fx below the %.1fx floor",
				q.Name, speedup, cfg.MinSpeedup)
		}
		rep.Results = append(rep.Results, OptResult{
			Query:            q.Name,
			BaselineSeconds:  baseSec,
			RewrittenSeconds: rwSec,
			Speedup:          speedup,
			RewritesFired:    fired,
			OutputRows:       len(baseRes.Rows),
		})
	}
	rep.Rewrites = st.String()

	// Adaptive leg: the static and the adaptive run must agree, and the
	// adaptive run must actually re-plan under the seeded mis-estimate.
	staticDB, err := optAdaptiveDB(cfg, 0)
	if err != nil {
		return nil, err
	}
	staticRes, err := staticDB.Query(optAdaptiveQuery)
	if err != nil {
		return nil, fmt.Errorf("bench: opt sweep adaptive leg (static): %w", err)
	}
	if staticRes.Stats.Replans != 0 {
		return nil, fmt.Errorf("bench: ReplanFactor=0 re-planned %d regions", staticRes.Stats.Replans)
	}
	adaptDB, err := optAdaptiveDB(cfg, 10)
	if err != nil {
		return nil, err
	}
	adaptRes, err := adaptDB.Query(optAdaptiveQuery)
	if err != nil {
		return nil, fmt.Errorf("bench: opt sweep adaptive leg (adaptive): %w", err)
	}
	if adaptRes.Stats.Replans == 0 {
		return nil, errors.New("bench: adaptive leg never re-planned under a seeded 1000x mis-estimate")
	}
	if !bytes.Equal(resultBytes(staticRes), resultBytes(adaptRes)) {
		return nil, errors.New("bench: adaptive leg results diverge from the static plan")
	}
	rep.Adaptive = OptAdaptiveLeg{
		Replans:    adaptRes.Stats.Replans,
		OutputRows: len(adaptRes.Rows),
	}
	return rep, nil
}
