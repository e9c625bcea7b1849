package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relalg/internal/core"
	"relalg/internal/value"
)

// The storage sweep measures the persistent paged store: one scan+aggregate
// query run at a descending series of buffer-pool budgets over a table far
// larger than the smallest pool. Every run must reproduce the first
// (largest-pool) run's exact rows, the pool's peak usage must stay within
// its budget, and each data directory is closed and reopened mid-sweep to
// gate restart durability — so the table doubles as an end-to-end
// correctness gate for the page codec, buffer pool, and recovery path.

// StorageConfig sizes the storage sweep.
type StorageConfig struct {
	Rows      int // stored rows
	Dim       int // vector dimensionality
	Groups    int // distinct aggregation groups
	Nodes     int
	PerNode   int
	Seed      int64
	PageBytes int
	// PoolBudgets are the BufferPoolBytes settings to sweep, largest first
	// (the baseline); the smallest must be well below the table size so the
	// sweep actually exercises eviction.
	PoolBudgets []int64
}

// DefaultStorageConfig sweeps the pool from comfortably-everything down to a
// small fraction of the table.
func DefaultStorageConfig() StorageConfig {
	return StorageConfig{
		Rows:        6000,
		Dim:         48,
		Groups:      40,
		Nodes:       4,
		PerNode:     2,
		Seed:        1,
		PageBytes:   4096,
		PoolBudgets: []int64{64 << 20, 1 << 20, 256 << 10, 64 << 10},
	}
}

// SmokeStorageConfig finishes in a couple of seconds.
func SmokeStorageConfig() StorageConfig {
	return StorageConfig{
		Rows:        1000,
		Dim:         16,
		Groups:      10,
		Nodes:       2,
		PerNode:     2,
		Seed:        1,
		PageBytes:   1024,
		PoolBudgets: []int64{64 << 20, 32 << 10},
	}
}

// Validate rejects sweeps that cannot serve as a correctness gate.
func (c StorageConfig) Validate() error {
	if c.Rows <= 0 || c.Dim <= 0 || c.Groups <= 0 || c.Nodes <= 0 || c.PerNode <= 0 {
		return errors.New("bench: storage config sizes must be positive")
	}
	if len(c.PoolBudgets) < 2 {
		return errors.New("bench: storage sweep needs at least two pool budgets (baseline plus one)")
	}
	for i, b := range c.PoolBudgets {
		if b <= 0 {
			return errors.New("bench: pool budgets must be positive")
		}
		if i > 0 && b >= c.PoolBudgets[i-1] {
			return errors.New("bench: pool budgets must descend")
		}
	}
	return nil
}

// StorageRow is one line of the sweep table.
type StorageRow struct {
	PoolBudget int64         `json:"pool_budget"`
	LoadTime   time.Duration `json:"load_ns"`
	QueryTime  time.Duration `json:"query_ns"`
	ReopenTime time.Duration `json:"reopen_ns"`
	TableBytes int64         `json:"table_bytes"`
	PeakBytes  int64         `json:"peak_bytes"`
	Hits       int64         `json:"hits"`
	Misses     int64         `json:"misses"`
	Evictions  int64         `json:"evictions"`
	Writebacks int64         `json:"writebacks"`
}

// StorageReport is the sweep result.
type StorageReport struct {
	Cfg  StorageConfig `json:"config"`
	Rows []StorageRow  `json:"rows"`
}

// JSON renders the report for BENCH_storage.json.
func (r *StorageReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// storageSweepQuery streams the whole table through the fused pipeline into
// an aggregation, so every committed page travels through the buffer pool.
const storageSweepQuery = `SELECT grp, COUNT(*) AS n, SUM(inner_product(v, v)) AS s ` +
	`FROM t WHERE id >= 0 GROUP BY grp ORDER BY grp`

// storageDB opens a fresh persistent database in dir at one pool budget.
func storageDB(cfg StorageConfig, dir string, budget int64) (*core.Database, error) {
	dbcfg := core.DefaultConfig()
	dbcfg.Cluster.Nodes = cfg.Nodes
	dbcfg.Cluster.PartitionsPerNode = cfg.PerNode
	dbcfg.DataDir = dir
	dbcfg.PageBytes = cfg.PageBytes
	dbcfg.BufferPoolBytes = budget
	return core.OpenData(dbcfg)
}

// storageRows builds the working set. Integer-valued entries keep the swept
// query's float sums exact so comparisons are bit-for-bit.
func storageRows(cfg StorageConfig) []value.Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]value.Row, cfg.Rows)
	for i := range rows {
		entries := make([]float64, cfg.Dim)
		for j := range entries {
			entries[j] = float64(rng.Intn(9) - 4)
		}
		rows[i] = value.Row{
			value.Int(int64(i)), value.Int(int64(i % cfg.Groups)),
			core.VectorValue(entries...),
		}
	}
	return rows
}

// dirTableBytes sums the page-file sizes under a data directory.
func dirTableBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(filepath.Join(dir, "tables"))
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// RunStorageSweep runs the sweep. It errors if any run's rows differ from
// the baseline, a reopened directory does not reproduce its own pre-restart
// rows, a pool overran its budget, or the smallest budget never evicted.
func RunStorageSweep(cfg StorageConfig) (*StorageReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &StorageReport{Cfg: cfg}
	rows := storageRows(cfg)
	var baseline *core.Result
	for _, budget := range cfg.PoolBudgets {
		dir, err := os.MkdirTemp("", "labench-storage-*")
		if err != nil {
			return nil, err
		}
		row, res, err := runStorageLeg(cfg, dir, budget, rows)
		_ = os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: storage sweep at pool %d: %w", budget, err)
		}
		if baseline == nil {
			baseline = res
		} else if err := sameResults(baseline, res); err != nil {
			return nil, fmt.Errorf("bench: pool %d: %w", budget, err)
		}
		rep.Rows = append(rep.Rows, *row)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Evictions == 0 {
		return nil, fmt.Errorf("bench: smallest pool %d never evicted; shrink it or grow the table", last.PoolBudget)
	}
	return rep, nil
}

// runStorageLeg loads, queries, restarts, and re-queries one configuration.
func runStorageLeg(cfg StorageConfig, dir string, budget int64, rows []value.Row) (*StorageRow, *core.Result, error) {
	db, err := storageDB(cfg, dir, budget)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = db.Close() }()
	if err := db.Exec(fmt.Sprintf("CREATE TABLE t (id INTEGER, grp INTEGER, v VECTOR[%d])", cfg.Dim)); err != nil {
		return nil, nil, err
	}
	start := time.Now() //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	if err := db.LoadTable("t", rows); err != nil {
		return nil, nil, err
	}
	loadTime := time.Since(start) //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	start = time.Now()            //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	res, err := db.Query(storageSweepQuery)
	if err != nil {
		return nil, nil, err
	}
	queryTime := time.Since(start) //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	st := db.Store().PoolStats()
	if st.PeakBytes > budget {
		return nil, nil, fmt.Errorf("pool peak %d exceeds budget %d", st.PeakBytes, budget)
	}
	tableBytes := dirTableBytes(dir)
	if err := db.Close(); err != nil {
		return nil, nil, err
	}

	// Restart leg: the reopened directory must reproduce the same rows.
	start = time.Now() //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	re, err := storageDB(cfg, dir, budget)
	if err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	defer func() { _ = re.Close() }()
	res2, err := re.Query(storageSweepQuery)
	if err != nil {
		return nil, nil, fmt.Errorf("reopen query: %w", err)
	}
	reopenTime := time.Since(start) //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
	if err := sameResults(res, res2); err != nil {
		return nil, nil, fmt.Errorf("restart: %w", err)
	}
	return &StorageRow{
		PoolBudget: budget,
		LoadTime:   loadTime,
		QueryTime:  queryTime,
		ReopenTime: reopenTime,
		TableBytes: tableBytes,
		PeakBytes:  st.PeakBytes,
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		Writebacks: st.Writebacks,
	}, res, nil
}

// Format renders the sweep as a table.
func (r *StorageReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Persistent storage sweep: %d x %d-dim rows, %d groups, %d nodes x %d partitions, %dB pages\n",
		r.Cfg.Rows, r.Cfg.Dim, r.Cfg.Groups, r.Cfg.Nodes, r.Cfg.PerNode, r.Cfg.PageBytes)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %8s %8s %8s\n",
		"pool", "table", "load", "query", "reopen", "peak", "hits", "misses", "evict")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %8d %8d %8d\n",
			fmtBytes(row.PoolBudget), fmtBytes(row.TableBytes),
			row.LoadTime.Round(time.Millisecond), row.QueryTime.Round(time.Millisecond),
			row.ReopenTime.Round(time.Millisecond), fmtBytes(row.PeakBytes),
			row.Hits, row.Misses, row.Evictions)
	}
	b.WriteString("all pools matched the baseline row-for-row; every restart reproduced its pre-restart rows\n")
	return b.String()
}
