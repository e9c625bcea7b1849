package bench

import (
	"math"
	"strings"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/workload"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Dims:             []int{3, 6},
		GramN:            120,
		DistN:            60,
		BlockRows:        20,
		Nodes:            2,
		PerNode:          2,
		Seed:             7,
		MaxTupleOps:      1e9,
		DistBudgetFactor: 8,
	}
}

func refGram(t *testing.T, data [][]float64) *linalg.Matrix {
	t.Helper()
	X, err := linalg.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	G, err := X.Transpose().MulMat(X)
	if err != nil {
		t.Fatal(err)
	}
	return G
}

func TestSimSQLVariantsAgreeOnGram(t *testing.T) {
	cfg := tinyConfig()
	data := workload.DenseVectors(3, 100, 5)
	want := refGram(t, data)
	for _, s := range cfg.simsqlVariants(0) {
		got, err := s.Gram(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("%s: gram disagrees with reference", s.Name())
		}
	}
}

func TestSimSQLVariantsAgreeOnRegression(t *testing.T) {
	cfg := tinyConfig()
	data := workload.DenseVectors(4, 100, 4)
	beta := workload.Beta(5, 4)
	yRows := workload.RegressionTargets(6, data, beta, 0)
	y := make([]float64, len(yRows))
	for i, r := range yRows {
		y[i] = r[1].D
	}
	want := linalg.VectorOf(beta...)
	for _, s := range cfg.simsqlVariants(0) {
		got, err := s.Regression(data, y)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !got.EqualApprox(want, 1e-6) {
			t.Fatalf("%s: beta = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestSimSQLDistanceVectorAndBlockAgree(t *testing.T) {
	cfg := tinyConfig()
	data := workload.DenseVectors(8, cfg.DistN, 4)
	metric := workload.MetricMatrix(9, 4)
	variants := cfg.simsqlVariants(0) // unlimited budget
	vIdx, vVal, err := variants[1].Distance(data, metric)
	if err != nil {
		t.Fatalf("vector distance: %v", err)
	}
	bIdx, bVal, err := variants[2].Distance(data, metric)
	if err != nil {
		t.Fatalf("block distance: %v", err)
	}
	if vIdx != bIdx || math.Abs(vVal-bVal) > 1e-9 {
		t.Fatalf("vector (%d, %g) vs block (%d, %g)", vIdx, vVal, bIdx, bVal)
	}
	// Tuple-based agrees when given an unlimited budget.
	tIdx, tVal, err := variants[0].Distance(data, metric)
	if err != nil {
		t.Fatalf("tuple distance (unlimited budget): %v", err)
	}
	if tIdx != vIdx || math.Abs(tVal-vVal) > 1e-9 {
		t.Fatalf("tuple (%d, %g) vs vector (%d, %g)", tIdx, tVal, vIdx, vVal)
	}
}

func TestRunDistanceTupleFails(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dims = []int{10}
	table, err := RunDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tuple, vector *TableRow
	for i := range table.Rows {
		switch table.Rows[i].Platform {
		case "Tuple SimSQL":
			tuple = &table.Rows[i]
		case "Vector SimSQL":
			vector = &table.Rows[i]
		}
	}
	if tuple == nil || vector == nil {
		t.Fatalf("missing rows in %v", table.Rows)
	}
	if !tuple.Cells[0].Failed {
		t.Fatalf("tuple distance should Fail under budget: %+v", tuple.Cells[0])
	}
	if vector.Cells[0].Failed || vector.Cells[0].Err != "" {
		t.Fatalf("vector distance should succeed: %+v", vector.Cells[0])
	}
	if !strings.Contains(table.Format(), "Fail") {
		t.Fatalf("formatted table missing Fail:\n%s", table.Format())
	}
}

func TestRunGramTableShape(t *testing.T) {
	cfg := tinyConfig()
	table, err := RunGram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("platforms %d, want 6", len(table.Rows))
	}
	names := []string{"Tuple SimSQL", "Vector SimSQL", "Block SimSQL", "SystemML", "SciDB", "Spark mllib"}
	for i, row := range table.Rows {
		if row.Platform != names[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Platform, names[i])
		}
		if len(row.Cells) != len(cfg.Dims) {
			t.Fatalf("row %q has %d cells", row.Platform, len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.Err != "" || c.Failed {
				t.Fatalf("%s: cell %+v", row.Platform, c)
			}
		}
	}
	text := table.Format()
	if !strings.Contains(text, "3 dims") || !strings.Contains(text, "6 dims") {
		t.Fatalf("format:\n%s", text)
	}
}

func TestRunRegressionTableShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dims = []int{4}
	table, err := RunRegression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 || len(table.Rows[0].Cells) != 1 {
		t.Fatalf("table shape %dx%d", len(table.Rows), len(table.Rows[0].Cells))
	}
}

func TestTupleScale(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxTupleOps = 1000
	s := cfg.simsqlVariants(0)[0]
	n, scale := cfg.tupleScale(s, 10, 600)
	// 600*100 = 60000 > 1000 -> subsample to max(20, 10) = 20.
	if n != 20 || scale != 30 {
		t.Fatalf("n=%d scale=%g", n, scale)
	}
	// Non-tuple platforms never scale.
	v := cfg.simsqlVariants(0)[1]
	if n, scale := cfg.tupleScale(v, 10, 600); n != 600 || scale != 1 {
		t.Fatalf("vector scaled: n=%d scale=%g", n, scale)
	}
	// Under the cap: no scaling.
	cfg.MaxTupleOps = 1e9
	if n, scale := cfg.tupleScale(s, 10, 600); n != 600 || scale != 1 {
		t.Fatalf("under-cap scaled: n=%d scale=%g", n, scale)
	}
}

func TestRunBreakdown(t *testing.T) {
	cfg := tinyConfig()
	b, err := RunBreakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Variants) != 2 {
		t.Fatalf("variants %d", len(b.Variants))
	}
	if b.Variants[0].Platform != "Tuple SimSQL" || b.Variants[1].Platform != "Vector SimSQL" {
		t.Fatalf("variants %v", b.Variants)
	}
	for _, v := range b.Variants {
		if v.Total <= 0 {
			t.Fatalf("%s: zero total", v.Platform)
		}
		if v.ByOp["aggregate"] == 0 {
			t.Fatalf("%s: no aggregate time", v.Platform)
		}
	}
	text := b.Format()
	if !strings.Contains(text, "aggregate") || !strings.Contains(text, "Figure 4") {
		t.Fatalf("breakdown format:\n%s", text)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := tinyConfig()
	bad.DistN = 55 // not a multiple of BlockRows
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid DistN accepted")
	}
	bad = tinyConfig()
	bad.Dims = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty dims accepted")
	}
	bad = tinyConfig()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCellFormat(t *testing.T) {
	if got := (Cell{Failed: true}).Format(); got != "Fail" {
		t.Fatalf("fail cell %q", got)
	}
	if got := (Cell{Err: "x"}).Format(); got != "Error" {
		t.Fatalf("error cell %q", got)
	}
	if got := (Cell{Seconds: 3661.5}).Format(); got != "01:01:01.50" {
		t.Fatalf("time cell %q", got)
	}
	if got := (Cell{Seconds: 1, Extrapolated: true}).Format(); !strings.HasPrefix(got, "~") {
		t.Fatalf("extrapolated cell %q", got)
	}
}

func TestOptimizerDemo(t *testing.T) {
	out, err := OptimizerDemo()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"LA-aware optimizer", "Ablation A1", "Ablation A2",
		"CrossJoin", "HashJoin", "matrix_multiply",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("demo output missing %q:\n%s", want, out)
		}
	}
	// The A1/A2 sections must NOT contain a cross join (they pick the
	// join-predicate plan), while the full optimizer section must.
	sections := strings.Split(out, "---")
	if len(sections) < 6 {
		t.Fatalf("unexpected demo structure:\n%s", out)
	}
	full, a1, a2 := sections[2], sections[4], sections[6]
	if !strings.Contains(full, "CrossJoin") {
		t.Fatalf("full optimizer lost the cross-product plan:\n%s", full)
	}
	if strings.Contains(a1, "CrossJoin") || strings.Contains(a2, "CrossJoin") {
		t.Fatalf("ablations should not cross join:\n%s", out)
	}
}

func TestLoadBalanceDemo(t *testing.T) {
	out := LoadBalanceDemo(100, 80)
	if !strings.Contains(out, "100 blocks over 80 cores") {
		t.Fatalf("demo output:\n%s", out)
	}
	// With 100 random placements on 80 cores the max load always exceeds
	// the mean of 1.25 (pigeonhole: some core gets >= 2).
	if !strings.Contains(out, "slowdown vs perfect balance") {
		t.Fatalf("missing slowdown line:\n%s", out)
	}
	if strings.Contains(out, "slowdown vs perfect balance: 1.00x") {
		t.Fatalf("hash placement reported as perfectly balanced:\n%s", out)
	}
	// The best any placement can do is ⌈100/80⌉ = 2 blocks on some core,
	// 2/1.25 = 1.60x the mean.
	if !strings.Contains(out, "max of 2 blocks/core, a 1.60x stage") {
		t.Fatalf("missing best-placement bound:\n%s", out)
	}
}
