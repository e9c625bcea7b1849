package main

// The six workloads. Each builder makes its inputs and its oracle from the
// seed on the harness side; the engine only ever sees rows and SQL text.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"relalg/internal/linalg"
	"relalg/internal/value"
	"relalg/internal/workload"
)

type table struct {
	name string
	ddl  string
	rows []value.Row
}

// spec is one workload, ready to set up and run.
type spec struct {
	name string
	// deploy gives the deployment for a fresh data directory; nil keeps the
	// engine in memory.
	deploy    func(dir string) deployment
	setupReps int     // set-ups per run; setup_s is their median
	tables    []table // the first is the main one: the codec and storage probes use it
	views     []string
	script    []string // one op runs these statements in order
	// check verifies the rows of the script's SELECTs, in script order.
	check func(results [][]value.Row) error
	serve *serveSpec // non-nil: ops go through a server instead of script

	// Facts the per-layer metrics need.
	inputRows  float64 // base-table rows the op's statements read
	flopsPerOp float64 // floating-point operations the op's kernels must do
	kernel     string  // probe whose rate kernel_share uses: matmul, outer, matvec
	probeRows  int     // rows of the (d×rows)·(rows×d) matmul probe
	probeDim   int     // d of every linalg probe
}

// sizes are the workload dimensions. full is what BENCHMARK.json measures;
// tiny is for the smoke test.
type sizes struct {
	regressN, regressD                    int
	gramBlockN, gramBlockD, blockRows     int
	distN, distD                          int
	gramTupleN, gramTupleD                int
	oocRows, oocDim, oocGroups            int
	oocPool, oocBudget                    int64
	serveRows, serveDim, serveGroups      int
	serveWarmup, serveSessions, serveConc int
}

var fullSizes = sizes{
	regressN: 16000, regressD: 100,
	gramBlockN: 2000, gramBlockD: 500, blockRows: 100,
	distN: 400, distD: 100,
	gramTupleN: 320, gramTupleD: 24,
	oocRows: 18000, oocDim: 48, oocGroups: 40, oocPool: 1 << 20, oocBudget: 768 << 10,
	serveRows: 20000, serveDim: 16, serveGroups: 64, serveWarmup: 200, serveSessions: 2, serveConc: 2,
}

var tinySizes = sizes{
	regressN: 400, regressD: 8,
	gramBlockN: 200, gramBlockD: 12, blockRows: 50,
	distN: 40, distD: 6,
	gramTupleN: 40, gramTupleD: 5,
	oocRows: 1600, oocDim: 8, oocGroups: 10, oocPool: 32 << 10, oocBudget: 16 << 10,
	serveRows: 600, serveDim: 4, serveGroups: 16, serveWarmup: 20, serveSessions: 2, serveConc: 2,
}

type builder struct {
	name  string
	why   string
	build func(seed int64, sz sizes) (*spec, error)
}

// workloads lists the builders in the order -all runs them.
var workloads = []builder{
	{"regress_vector", "paper Fig. 2, vector layout: hash join moving vectors through the row codec plus fused rank-1 accumulation; exec, value and cluster do nearly all the work", buildRegressVector},
	{"gram_block", "paper Fig. 1, block layout: ROWMATRIX blocking then tiled matmul; linalg does most of the work and exec little, so kernel changes show here and not on gram_tuple", buildGramBlock},
	{"distance_vector", "paper Fig. 3: broadcast cross join with per-pair builtin calls, and writes beside reads (two CTAS and two DROP per op)", buildDistanceVector},
	{"gram_tuple", "paper Fig. 1, tuple layout, the relational baseline: join, aggregate and shuffle only, linalg does nothing; LA-kernel work must not move it", buildGramTuple},
	{"ooc_paged", "persistent store with the table several times the buffer pool and a memory budget that makes the join spill: the only workload where storage, spill and blockio work", buildOocPaged},
	{"serve_mix", "two closed-loop sessions over loopback TCP with a mix of cached and uncached statements: the only workload where serve, sqlparse, plan, opt and concurrency show", buildServeMix},
}

func findWorkload(name string) (builder, bool) {
	for _, b := range workloads {
		if b.name == name {
			return b, true
		}
	}
	return builder{}, false
}

func vectorTable(name string, d int, data [][]float64) table {
	return table{name, fmt.Sprintf("CREATE TABLE %s (id INTEGER, value VECTOR[%d])", name, d), workload.VectorRows(data)}
}

// singleMatrix checks that results is one SELECT returning one d×d matrix
// and compares it to want.
func singleMatrix(results [][]value.Row, d int, want []float64) error {
	if len(results) != 1 || len(results[0]) != 1 || len(results[0][0]) != 1 || results[0][0][0].Kind != value.KindMatrix {
		return fmt.Errorf("want one row holding one matrix, got %v result sets", len(results))
	}
	m := results[0][0][0].Mat
	if m.Rows != d || m.Cols != d {
		return fmt.Errorf("got a %dx%d matrix, want %dx%d", m.Rows, m.Cols, d, d)
	}
	return closeTo(m.Data, want, relTol)
}

func buildRegressVector(seed int64, sz sizes) (*spec, error) {
	n, d := sz.regressN, sz.regressD
	const noise = 0.01
	data := workload.DenseVectors(seed, n, d)
	beta := workload.Beta(seed+1, d)
	yRows := workload.RegressionTargets(seed+2, data, beta, noise)
	y := make([]float64, n)
	for i, r := range yRows {
		y[i] = r[1].D
	}
	solved, err := solveRef(gramRef(data), xtyRef(data, y))
	if err != nil {
		return nil, err
	}
	// β̂ - β has standard error noise/sqrt(n·Var(x)) per coordinate, with
	// Var(x) = 1/3 for entries uniform in [-1, 1); ten of them is far outside
	// what noise alone produces.
	noiseTol := 10 * noise / math.Sqrt(float64(n)/3)
	return &spec{
		name:      "regress_vector",
		setupReps: 7,
		tables: []table{
			vectorTable("xv", d, data),
			{"yt", "CREATE TABLE yt (i INTEGER, y_i DOUBLE)", yRows},
		},
		script: []string{`SELECT matrix_vector_multiply(
				matrix_inverse(SUM(outer_product(x.value, x.value))),
				SUM(x.value * yt.y_i))
			FROM xv AS x, yt WHERE x.id = yt.i`},
		check: func(results [][]value.Row) error {
			if len(results) != 1 || len(results[0]) != 1 || results[0][0][0].Kind != value.KindVector {
				return fmt.Errorf("want one row holding one vector")
			}
			got := results[0][0][0].Vec.Data
			if err := closeTo(got, solved, 1e-8); err != nil {
				return fmt.Errorf("against the normal-equation solve: %w", err)
			}
			for j := range beta {
				if math.Abs(got[j]-beta[j]) > noiseTol {
					return fmt.Errorf("beta[%d] = %v, generated with %v (tolerance %.3g)", j, got[j], beta[j], noiseTol)
				}
			}
			return nil
		},
		inputRows:  2 * float64(n),
		flopsPerOp: float64(n)*(2*float64(d*d)+2*float64(d)) + 2*float64(d*d*d) + 2*float64(d*d),
		kernel:     "outer",
		probeRows:  100,
		probeDim:   d,
	}, nil
}

func buildGramBlock(seed int64, sz sizes) (*spec, error) {
	n, d, b := sz.gramBlockN, sz.gramBlockD, sz.blockRows
	data := workload.DenseVectors(seed, n, d)
	want := gramRef(data)
	return &spec{
		name:      "gram_block",
		setupReps: 7,
		tables: []table{
			vectorTable("xv", d, data),
			{"block_index", "CREATE TABLE block_index (mi INTEGER)", workload.BlockIndexRows((n + b - 1) / b)},
		},
		// The paper counts blocking as part of the computation, so the view
		// builds the blocks at query time.
		views: []string{fmt.Sprintf(`CREATE VIEW mlx AS
			SELECT ind.mi AS mi, ROWMATRIX(label_vector(x.value, x.id - ind.mi*%d)) AS m
			FROM xv AS x, block_index AS ind
			WHERE x.id/%d = ind.mi
			GROUP BY ind.mi`, b, b)},
		script:     []string{`SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) FROM mlx`},
		check:      func(results [][]value.Row) error { return singleMatrix(results, d, want) },
		inputRows:  float64(n + (n+b-1)/b),
		flopsPerOp: 2 * float64(n) * float64(d*d),
		kernel:     "matmul",
		probeRows:  b,
		probeDim:   d,
	}, nil
}

func buildDistanceVector(seed int64, sz sizes) (*spec, error) {
	n, d := sz.distN, sz.distD
	data := workload.DenseVectors(seed, n, d)
	metric := workload.MetricMatrix(seed+1, d)
	wantID, wantDist := argMaxMinRef(data, metric.Data)
	return &spec{
		name:      "distance_vector",
		setupReps: 7,
		tables: []table{
			vectorTable("xv", d, data),
			{"am", fmt.Sprintf("CREATE TABLE am (val MATRIX[%d][%d])", d, d), []value.Row{{value.Matrix(metric)}}},
		},
		script: []string{
			`CREATE TABLE mx AS
				SELECT x.id AS id, matrix_vector_multiply(a.val, x.value) AS mx_data
				FROM xv AS x, am AS a`,
			`CREATE TABLE distancesm AS
				SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
				FROM xv AS a, mx AS mxx
				WHERE a.id <> mxx.id
				GROUP BY a.id`,
			`SELECT d.id, d.dist
				FROM distancesm AS d, (SELECT MAX(dist) AS top FROM distancesm) AS mm
				WHERE d.dist = mm.top`,
			`DROP TABLE distancesm`,
			`DROP TABLE mx`,
		},
		check: func(results [][]value.Row) error {
			if len(results) != 1 || len(results[0]) != 1 || len(results[0][0]) != 2 {
				return fmt.Errorf("want one (id, dist) row")
			}
			r := results[0][0]
			if r[0].Kind != value.KindInt || int(r[0].I) != wantID {
				return fmt.Errorf("farthest point %v, want %d", r[0], wantID)
			}
			return closeTo([]float64{r[1].D}, []float64{wantDist}, relTol)
		},
		inputRows:  float64(n+1) + 2*float64(n) + 2*float64(n),
		flopsPerOp: float64(n)*2*float64(d*d) + float64(n)*float64(n-1)*2*float64(d),
		kernel:     "matvec",
		probeRows:  100,
		probeDim:   d,
	}, nil
}

func buildGramTuple(seed int64, sz sizes) (*spec, error) {
	n, d := sz.gramTupleN, sz.gramTupleD
	data := workload.DenseVectors(seed, n, d)
	want := gramRef(data)
	return &spec{
		name:      "gram_tuple",
		setupReps: 7,
		tables:    []table{{"xt", "CREATE TABLE xt (row_index INTEGER, col_index INTEGER, value DOUBLE)", workload.TupleRows(data)}},
		script: []string{`SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
			FROM xt AS x1, xt AS x2
			WHERE x1.row_index = x2.row_index
			GROUP BY x1.col_index, x2.col_index`},
		check: func(results [][]value.Row) error {
			if len(results) != 1 || len(results[0]) != d*d {
				return fmt.Errorf("want %d (i, j, sum) rows", d*d)
			}
			got := make([]float64, d*d)
			seen := make([]bool, d*d)
			for _, r := range results[0] {
				i, j := int(r[0].I), int(r[1].I)
				if r[0].Kind != value.KindInt || r[1].Kind != value.KindInt || i < 0 || i >= d || j < 0 || j >= d || seen[i*d+j] {
					return fmt.Errorf("bad or repeated cell (%v, %v)", r[0], r[1])
				}
				seen[i*d+j] = true
				got[i*d+j] = r[2].D
			}
			return closeTo(got, want, relTol)
		},
		inputRows: 2 * float64(n*d),
		probeRows: 100,
		probeDim:  d,
	}, nil
}

// intVector draws a vector with entries in {-4..4}: sums and products of such
// entries are exact in float64, so the oracle can ask for equality whatever
// order the engine adds in.
func intVector(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = float64(rng.Intn(9) - 4)
	}
	return v
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// groupRows checks rows of (grp INTEGER, n INTEGER, s DOUBLE) ordered by grp
// against exact counts and sums.
func groupRows(rows []value.Row, counts []int64, sums []float64) error {
	if len(rows) != len(counts) {
		return fmt.Errorf("got %d groups, want %d", len(rows), len(counts))
	}
	for g, r := range rows {
		if len(r) != 3 || r[0].Kind != value.KindInt || r[1].Kind != value.KindInt || r[2].Kind != value.KindDouble {
			return fmt.Errorf("group %d: row %v is not (INTEGER, INTEGER, DOUBLE)", g, r)
		}
		if r[0].I != int64(g) || r[1].I != counts[g] || r[2].D != sums[g] {
			return fmt.Errorf("group %d: got (%d, %d, %v), want (%d, %d, %v)", g, r[0].I, r[1].I, r[2].D, g, counts[g], sums[g])
		}
	}
	return nil
}

func buildOocPaged(seed int64, sz sizes) (*spec, error) {
	n, d, groups := sz.oocRows, sz.oocDim, sz.oocGroups
	rng := rand.New(rand.NewSource(seed))
	ids := max(n/4, 1)
	lRows, rRows := make([]value.Row, n), make([]value.Row, n/2)
	rByID := make([][][]float64, ids)
	for i := range rRows {
		v := intVector(rng, d)
		id := i % ids
		rByID[id] = append(rByID[id], v)
		rRows[i] = value.Row{value.Int(int64(id)), value.Vector(linalg.VectorOf(v...))}
	}
	scanN, joinN := make([]int64, groups), make([]int64, groups)
	scanS, joinS := make([]float64, groups), make([]float64, groups)
	for i := range lRows {
		v := intVector(rng, d)
		id, g := i%ids, i%groups
		lRows[i] = value.Row{value.Int(int64(id)), value.Int(int64(g)), value.Vector(linalg.VectorOf(v...))}
		scanN[g]++
		scanS[g] += dot(v, v)
		for _, rv := range rByID[id] {
			joinN[g]++
			joinS[g] += dot(v, rv)
		}
	}
	var joinTuples int64
	for _, c := range joinN {
		joinTuples += c
	}
	return &spec{
		name: "ooc_paged",
		deploy: func(dir string) deployment {
			return deployment{dataDir: dir, poolBytes: sz.oocPool, memoryBudget: sz.oocBudget}
		},
		setupReps: 5,
		tables: []table{
			{"l", fmt.Sprintf("CREATE TABLE l (id INTEGER, grp INTEGER, v VECTOR[%d])", d), lRows},
			{"r", fmt.Sprintf("CREATE TABLE r (id INTEGER, v VECTOR[%d])", d), rRows},
		},
		script: []string{
			`SELECT grp, COUNT(*) AS n, SUM(inner_product(v, v)) AS s FROM l GROUP BY grp ORDER BY grp`,
			`SELECT l.grp, COUNT(*) AS n, SUM(inner_product(l.v, r.v)) AS s
				FROM l, r WHERE l.id = r.id GROUP BY l.grp ORDER BY l.grp`,
		},
		check: func(results [][]value.Row) error {
			if len(results) != 2 {
				return fmt.Errorf("want two result sets, got %d", len(results))
			}
			if err := groupRows(results[0], scanN, scanS); err != nil {
				return fmt.Errorf("scan-aggregate: %w", err)
			}
			if err := groupRows(results[1], joinN, joinS); err != nil {
				return fmt.Errorf("join-aggregate: %w", err)
			}
			return nil
		},
		inputRows:  float64(n) + float64(n) + float64(n/2),
		flopsPerOp: 2 * float64(d) * (float64(n) + float64(joinTuples)),
		kernel:     "matvec",
		probeRows:  100,
		probeDim:   d,
	}, nil
}

// ---- serve_mix ----

// The statement classes of the served mix, in schedule order.
const (
	classAggHit = iota
	classPointMiss
	classLaHit
	classWideRows
	classInsert
	numClasses
)

var classNames = [numClasses]string{"agg_hit", "point_miss", "la_hit", "wide_rows", "insert"}

// classPerBlock is the mix: of every 20 ops, 10 agg_hit (50 %), 4 point_miss
// (20 %), 3 la_hit (15 %), 2 wide_rows (10 %) and 1 insert (5 %). Each block
// is shuffled from the seed, so the shares are exact over any whole number of
// blocks and only the order varies.
var classPerBlock = [numClasses]int{10, 4, 3, 2, 1}

const (
	sqlAggHit = `SELECT g, COUNT(*) AS n, SUM(v) AS s FROM pts GROUP BY g ORDER BY g`
	sqlLaHit  = `SELECT SUM(outer_product(x, x)) FROM pts WHERE g < 8`
	laGroups  = 8
	wideGroup = 5
)

var sqlWideRows = fmt.Sprintf(`SELECT id, x FROM pts WHERE g = %d ORDER BY id`, wideGroup)

type serveSpec struct {
	sessions, maxConcurrent, warmup int
	seed                            int64
	points                          []value.Row             // pts as loaded: (id, g, v, x)
	pointIDs                        [][]int                 // per session, the ids it looks up, in order
	expected                        [numClasses][]value.Row // full replies of the fixed-text read classes
}

// schedule returns a session's endless class sequence.
func (s *serveSpec) schedule(session int) func() int {
	rng := rand.New(rand.NewSource(s.seed*1000 + int64(session)))
	var block []int
	for c, k := range classPerBlock {
		for i := 0; i < k; i++ {
			block = append(block, c)
		}
	}
	pos := len(block)
	return func() int {
		if pos == len(block) {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			pos = 0
		}
		pos++
		return block[pos-1]
	}
}

func buildServeMix(seed int64, sz sizes) (*spec, error) {
	n, d, groups := sz.serveRows, sz.serveDim, sz.serveGroups
	if groups <= wideGroup || groups < laGroups {
		return nil, fmt.Errorf("serve_mix needs more than %d groups", max(wideGroup, laGroups-1))
	}
	rng := rand.New(rand.NewSource(seed))
	sv := &serveSpec{sessions: sz.serveSessions, maxConcurrent: sz.serveConc, warmup: sz.serveWarmup, seed: seed}
	sv.points = make([]value.Row, n)
	// One permutation of the ids, dealt round-robin, so no lookup's text
	// repeats within or across sessions until a session has used all of its.
	sv.pointIDs = make([][]int, sv.sessions)
	for i, id := range rand.New(rand.NewSource(seed + 1)).Perm(n) {
		sv.pointIDs[i%sv.sessions] = append(sv.pointIDs[i%sv.sessions], id)
	}
	counts, sums := make([]int64, groups), make([]float64, groups)
	la := linalg.NewMatrix(d, d)
	for i := range sv.points {
		g, v, x := rng.Intn(groups), float64(rng.Intn(201)-100), intVector(rng, d)
		vec := value.Vector(linalg.VectorOf(x...))
		sv.points[i] = value.Row{value.Int(int64(i)), value.Int(int64(g)), value.Double(v), vec}
		counts[g]++
		sums[g] += v
		if g < laGroups {
			for a := 0; a < d; a++ {
				for b := 0; b < d; b++ {
					la.Data[a*d+b] += x[a] * x[b]
				}
			}
		}
		if g == wideGroup {
			sv.expected[classWideRows] = append(sv.expected[classWideRows], value.Row{value.Int(int64(i)), vec})
		}
	}
	for g := range counts {
		if counts[g] == 0 {
			return nil, fmt.Errorf("serve_mix: group %d is empty at this size", g)
		}
		sv.expected[classAggHit] = append(sv.expected[classAggHit],
			value.Row{value.Int(int64(g)), value.Int(counts[g]), value.Double(sums[g])})
	}
	sv.expected[classLaHit] = []value.Row{{value.Matrix(la)}}
	perBlock := float64(classPerBlock[classAggHit]+classPerBlock[classPointMiss]+classPerBlock[classLaHit]+classPerBlock[classWideRows]) / 20
	return &spec{
		name:      "serve_mix",
		setupReps: 5,
		tables: []table{
			{"pts", fmt.Sprintf("CREATE TABLE pts (id INTEGER, g INTEGER, v DOUBLE, x VECTOR[%d])", d), sv.points},
			{"ev", "CREATE TABLE ev (k INTEGER, s INTEGER, w DOUBLE)", nil},
		},
		serve:      sv,
		inputRows:  perBlock * float64(n),
		flopsPerOp: float64(classPerBlock[classLaHit]) / 20 * float64(n) * laGroups / float64(groups) * 2 * float64(d*d),
		kernel:     "outer",
		probeRows:  100,
		probeDim:   d,
	}, nil
}

// rowsEqual compares result rows exactly by kind and numeric content; vector
// labels are placement metadata and are ignored.
func rowsEqual(got, want []value.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			ok := g.Kind == w.Kind
			switch {
			case !ok:
			case w.Kind == value.KindInt:
				ok = g.I == w.I
			case w.Kind == value.KindDouble:
				ok = g.D == w.D
			case w.Kind == value.KindVector:
				ok = slices.Equal(g.Vec.Data, w.Vec.Data)
			case w.Kind == value.KindMatrix:
				ok = g.Mat.Rows == w.Mat.Rows && g.Mat.Cols == w.Mat.Cols && slices.Equal(g.Mat.Data, w.Mat.Data)
			}
			if !ok {
				return fmt.Errorf("row %d column %d: got %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}
