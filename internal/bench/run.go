package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/workload"

	"relalg/internal/baselines/scidb"
	"relalg/internal/baselines/sparkml"
	"relalg/internal/baselines/systemml"
)

// Config sizes one harness run. The paper ran 10 machines with 10⁵ points
// per machine (10⁴ for distance) at 10/100/1000 dimensions; those sizes take
// hours per platform on one box, so the defaults are scaled down — every
// cost term the paper measures is linear in the row count, which preserves
// the comparisons (see EXPERIMENTS.md).
type Config struct {
	Dims      []int
	GramN     int // points for Gram and regression
	DistN     int // points for the distance computation
	BlockRows int // rows per block for the blocked layout
	Nodes     int
	PerNode   int
	Seed      int64
	// MaxTupleOps caps n·d² for the tuple layout; beyond it, the harness
	// runs a row subsample and scales the time linearly (marked "~").
	MaxTupleOps float64
	// DistBudgetFactor sets the distance run's intermediate-tuple budget to
	// factor·n²: comfortably above the vector/block plans (≈3n²) and below
	// the tuple plan (≈n²·d), reproducing the paper's Fail entries.
	DistBudgetFactor int
	// Bandwidth models per-link network bandwidth (bytes/sec, 0 = infinite)
	// so shuffles cost what they did on the paper's Hadoop-era cluster.
	Bandwidth float64
}

// QuickConfig finishes in well under a minute.
func QuickConfig() Config {
	return Config{
		Dims:             []int{10, 40, 120},
		GramN:            3000,
		DistN:            300,
		BlockRows:        50,
		Nodes:            4,
		PerNode:          2,
		Seed:             1,
		MaxTupleOps:      1e6,
		DistBudgetFactor: 8,
		Bandwidth:        400e6,
	}
}

// PaperConfig uses the paper's dimensionalities with scaled-down row counts.
func PaperConfig() Config {
	return Config{
		Dims:             []int{10, 100, 1000},
		GramN:            4000,
		DistN:            400,
		BlockRows:        100,
		Nodes:            10,
		PerNode:          2,
		Seed:             1,
		MaxTupleOps:      2e7,
		DistBudgetFactor: 8,
		Bandwidth:        400e6,
	}
}

// Validate rejects configurations the harness cannot honour.
func (c Config) Validate() error {
	if len(c.Dims) == 0 || c.GramN <= 0 || c.DistN <= 0 {
		return errors.New("bench: empty dims or row counts")
	}
	if c.BlockRows <= 0 || c.DistN%c.BlockRows != 0 || c.DistN/c.BlockRows < 2 {
		return fmt.Errorf("bench: DistN (%d) must be a multiple of BlockRows (%d) with at least 2 blocks", c.DistN, c.BlockRows)
	}
	if c.Nodes <= 0 || c.PerNode <= 0 {
		return errors.New("bench: cluster shape must be positive")
	}
	return nil
}

// Cell is one (platform, dims) measurement.
type Cell struct {
	Seconds      float64
	Failed       bool // resource exhaustion, like the paper's "Fail"
	Extrapolated bool // measured on a subsample and scaled
	Err          string
}

// Format renders the cell the way the paper prints it (HH:MM:SS).
func (c Cell) Format() string {
	if c.Failed {
		return "Fail"
	}
	if c.Err != "" {
		return "Error"
	}
	s := formatHMS(c.Seconds)
	if c.Extrapolated {
		return "~" + s
	}
	return s
}

func formatHMS(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	sec := d.Seconds() - float64(h*3600+m*60)
	return fmt.Sprintf("%02d:%02d:%05.2f", h, m, sec)
}

// TableRow is one platform's row of a results table.
type TableRow struct {
	Platform string
	Cells    []Cell
}

// Table is one paper figure's worth of results.
type Table struct {
	Title string
	Dims  []int
	Rows  []TableRow
}

// Format renders a paper-style results table.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-16s", "Platform")
	for _, d := range t.Dims {
		fmt.Fprintf(&b, "%14s", fmt.Sprintf("%d dims", d))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-16s", row.Platform)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "%14s", c.Format())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Platform is the shared surface of the six benchmarked systems: the three
// SimSQL layouts of the extended engine plus the three simulated
// comparators.
type Platform interface {
	Name() string
	Gram(data [][]float64) (*linalg.Matrix, error)
	Regression(data [][]float64, y []float64) (*linalg.Vector, error)
	Distance(data [][]float64, metric *linalg.Matrix) (int, float64, error)
}

// platform is kept as an internal alias.
type platform = Platform

// Platforms returns all six benchmark platforms in the paper's row order.
// distBudget, when non-zero, caps intermediate tuples for the SimSQL
// variants' distance runs.
func Platforms(cfg Config, distBudget int64) []Platform {
	return cfg.allPlatforms(distBudget)
}

func (c Config) newCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:              c.Nodes,
		PartitionsPerNode:  c.PerNode,
		SerializeShuffles:  true,
		NetworkBytesPerSec: c.Bandwidth,
	})
}

// simsqlVariants builds the three engine layouts.
func (c Config) simsqlVariants(distBudget int64) []*simsql {
	mk := func(l simsqlLayout) *simsql {
		return &simsql{layout: l, nodes: c.Nodes, perNode: c.PerNode, blockRows: c.BlockRows, budget: distBudget, bandwidth: c.Bandwidth}
	}
	return []*simsql{mk(layoutTuple), mk(layoutVector), mk(layoutBlock)}
}

// comparators builds the three simulated external systems, each on a fresh
// cluster.
func (c Config) comparators() []platform {
	return []platform{
		systemml.New(c.newCluster()),
		scidb.New(c.newCluster()),
		sparkml.New(c.newCluster()),
	}
}

func (c Config) allPlatforms(distBudget int64) []platform {
	var out []platform
	for _, s := range c.simsqlVariants(distBudget) {
		out = append(out, s)
	}
	return append(out, c.comparators()...)
}

// RunGram regenerates Figure 1.
func RunGram(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 1: Gram matrix computation", Dims: cfg.Dims}
	for _, pl := range cfg.allPlatforms(0) {
		row := TableRow{Platform: pl.Name()}
		for _, d := range cfg.Dims {
			row.Cells = append(row.Cells, runGramCell(cfg, pl, d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runGramCell(cfg Config, pl platform, d int) Cell {
	n, scale := cfg.tupleScale(pl, d, cfg.GramN)
	data := workload.DenseVectors(cfg.Seed, n, d)
	return timeCell(scale, func() error {
		_, err := pl.Gram(data)
		return err
	})
}

// RunRegression regenerates Figure 2.
func RunRegression(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 2: Least squares linear regression", Dims: cfg.Dims}
	for _, pl := range cfg.allPlatforms(0) {
		row := TableRow{Platform: pl.Name()}
		for _, d := range cfg.Dims {
			row.Cells = append(row.Cells, runRegressionCell(cfg, pl, d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runRegressionCell(cfg Config, pl platform, d int) Cell {
	n, scale := cfg.tupleScale(pl, d, cfg.GramN)
	data := workload.DenseVectors(cfg.Seed, n, d)
	beta := workload.Beta(cfg.Seed+1, d)
	yRows := workload.RegressionTargets(cfg.Seed+2, data, beta, 0.01)
	y := make([]float64, len(yRows))
	for i, r := range yRows {
		y[i] = r[1].D
	}
	return timeCell(scale, func() error {
		_, err := pl.Regression(data, y)
		return err
	})
}

// RunDistance regenerates Figure 3. The tuple-based engine runs under an
// intermediate-tuple budget of DistBudgetFactor·n² and fails, as in the
// paper.
func RunDistance(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	budget := int64(cfg.DistBudgetFactor) * int64(cfg.DistN) * int64(cfg.DistN)
	t := &Table{Title: "Figure 3: Distance computation", Dims: cfg.Dims}
	for _, pl := range cfg.allPlatforms(budget) {
		row := TableRow{Platform: pl.Name()}
		for _, d := range cfg.Dims {
			row.Cells = append(row.Cells, runDistanceCell(cfg, pl, d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runDistanceCell(cfg Config, pl platform, d int) Cell {
	data := workload.DenseVectors(cfg.Seed, cfg.DistN, d)
	metric := workload.MetricMatrix(cfg.Seed+3, d)
	return timeCell(1, func() error {
		_, _, err := pl.Distance(data, metric)
		return err
	})
}

// timeCell measures one benchmark cell. The stopwatch is the single place
// the harness reads the wall clock: the measured seconds ARE the benchmark
// output, while everything that feeds the computation (data, seeds, tick
// accounting) stays deterministic.
func timeCell(scale float64, fn func() error) Cell {
	runtime.GC() // isolate cells from each other's garbage
	start := time.Now()
	err := fn()
	elapsed := time.Since(start).Seconds() * scale
	return cellFrom(elapsed, scale, err)
}

func cellFrom(seconds, scale float64, err error) Cell {
	switch {
	case errors.Is(err, cluster.ErrResourceExhausted):
		return Cell{Failed: true}
	case err != nil:
		return Cell{Err: err.Error()}
	}
	return Cell{Seconds: seconds, Extrapolated: scale > 1}
}

// tupleScale subsamples the tuple layout beyond MaxTupleOps, returning the
// adjusted row count and the linear time-scaling factor.
func (cfg Config) tupleScale(pl platform, d, n int) (int, float64) {
	s, ok := pl.(*simsql)
	if !ok || s.layout != layoutTuple || cfg.MaxTupleOps <= 0 {
		return n, 1
	}
	ops := float64(n) * float64(d) * float64(d)
	if ops <= cfg.MaxTupleOps {
		return n, 1
	}
	sub := int(cfg.MaxTupleOps / (float64(d) * float64(d)))
	if sub < 20 {
		sub = 20
	}
	if sub >= n {
		return n, 1
	}
	return sub, float64(n) / float64(sub)
}

// Breakdown is Figure 4: per-operator time shares for tuple vs vector Gram.
type Breakdown struct {
	Dim      int
	N        int
	Variants []BreakdownRow
}

// BreakdownRow is one layout's operator timing split.
type BreakdownRow struct {
	Platform string
	Total    time.Duration
	ByOp     map[string]time.Duration
}

// Format renders Figure 4 as stacked percentage bars.
func (b *Breakdown) Format() string {
	var out strings.Builder
	fmt.Fprintf(&out, "Figure 4: Gram matrix operator breakdown (n=%d, d=%d)\n", b.N, b.Dim)
	ops := []string{"scan", "pipeline", "join", "aggregate", "aggregate-shuffle", "project", "filter"}
	for _, row := range b.Variants {
		fmt.Fprintf(&out, "%-14s total %8.3fs\n", row.Platform, row.Total.Seconds())
		for _, op := range ops {
			d := row.ByOp[op]
			if d == 0 {
				continue
			}
			pct := 100 * float64(d) / float64(row.Total)
			bar := strings.Repeat("#", int(pct/2))
			fmt.Fprintf(&out, "  %-18s %6.1f%% %s\n", op, pct, bar)
		}
	}
	return out.String()
}

// RunBreakdown regenerates Figure 4 at the largest configured
// dimensionality (the paper used 1000 dims on a five-machine cluster).
func RunBreakdown(cfg Config) (*Breakdown, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Dims[len(cfg.Dims)-1]
	b := &Breakdown{Dim: d, N: cfg.GramN}
	for _, s := range cfg.simsqlVariants(0)[:2] { // tuple and vector
		n, _ := cfg.tupleScale(s, d, cfg.GramN)
		data := workload.DenseVectors(cfg.Seed, n, d)
		tm, err := s.GramTimings(data)
		if err != nil {
			return nil, err
		}
		row := BreakdownRow{Platform: s.Name(), Total: tm.Total(), ByOp: map[string]time.Duration{}}
		for _, l := range tm.Labels() {
			row.ByOp[l] = tm.Get(l)
		}
		b.Variants = append(b.Variants, row)
	}
	return b, nil
}
