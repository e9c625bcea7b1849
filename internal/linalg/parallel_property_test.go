package linalg

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// withProcs raises GOMAXPROCS for the duration of a test so the parallel
// paths genuinely fan out (and race-test) even on single-core CI boxes —
// planWorkers clamps to GOMAXPROCS, so without this the splits never spawn.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// This file property-tests the tiled and row-parallel product kernels
// against the reference kernel, bit for bit at every worker count, and
// Matrix.Sum's fixed-chunk association against left-to-right summation.

// workerCounts spans serial, even, odd, and oversubscribed splits.
var workerCounts = []int{1, 2, 3, 4, 7, 8}

// genMatDims biases dimensions toward the awkward cases the tiled kernel has
// to get right: 1×N, N×1, sizes straddling the 4-wide k unroll and the 2-row
// microtile, and a size past one column panel.
func genMatDims(raw uint16) int {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 100, 513, 600}
	return dims[int(raw)%len(dims)]
}

// bitsEqual compares matrices by float64 bit pattern, so NaN == NaN, which
// Equal's != would reject.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		if math.Float64bits(x) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// genSparseMat is genMat with a zero-dense mask: the tiled kernel short-cuts
// all-zero coefficient groups, so heavy zero blocks must be exercised.
func genSparseMat(r *rand.Rand, rows, cols int) *Matrix {
	m := genMat(r, rows, cols)
	for i := range m.Data {
		if r.Intn(3) != 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func TestPropTiledMulMatBitExact(t *testing.T) {
	withProcs(t, 8)
	f := func(seed int64, aRaw, bRaw, cRaw uint16, sparse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q, s := genMatDims(aRaw), genMatDims(bRaw), genMatDims(cRaw)
		// Cap the flop count so the property sweep stays fast.
		for p*q*s > 1<<22 {
			p, q, s = (p+1)/2, (q+1)/2, (s+1)/2
		}
		gen := genMat
		if sparse {
			gen = genSparseMat
		}
		A, B := gen(rng, p, q), gen(rng, q, s)
		want, err := RefMulMat(A, B)
		if err != nil {
			return false
		}
		got, err := A.MulMat(B)
		if err != nil {
			return false
		}
		if !got.Equal(want) {
			return false
		}
		for _, w := range workerCounts {
			pw, err := ParallelMulMat(A, B, w)
			if err != nil || !pw.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTiledMulMatEdgeShapes(t *testing.T) {
	withProcs(t, 8)
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ p, q, s int }{
		{1, 1, 1}, {1, 600, 1}, {600, 1, 600}, {1, 1, 600},
		{2, 4, 512}, {3, 5, 513}, {5, 4, 511}, {2, 3, 1},
		{513, 2, 2}, {64, 64, 64}, {65, 67, 69},
	}
	for _, sh := range shapes {
		A, B := genMat(rng, sh.p, sh.q), genMat(rng, sh.q, sh.s)
		want, err := RefMulMat(A, B)
		if err != nil {
			t.Fatal(err)
		}
		got, err := A.MulMat(B)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%dx%d·%dx%d: tiled kernel differs from reference", sh.p, sh.q, sh.q, sh.s)
		}
		for _, w := range workerCounts {
			pw, err := ParallelMulMat(A, B, w)
			if err != nil {
				t.Fatal(err)
			}
			if !pw.Equal(want) {
				t.Fatalf("%dx%d·%dx%d workers=%d: parallel kernel differs", sh.p, sh.q, sh.q, sh.s, w)
			}
		}
	}
}

// TestPropMatrixSumChunks pins Sum's association: up to one reduceChunk it
// is left-to-right summation bit for bit, and across chunk boundaries it
// agrees with left to right within ordinary rounding of the magnitude sum.
func TestPropMatrixSumChunks(t *testing.T) {
	f := func(seed int64, big bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rng.Int31n(reduceChunk)) + 1
		if big {
			n = reduceChunk*3 + int(rng.Int31n(reduceChunk))
		}
		m := &Matrix{Rows: 1, Cols: n, Data: genVec(rng, n).Data}
		var flat, absSum float64
		for _, x := range m.Data {
			flat += x
			absSum += math.Abs(x)
		}
		got := m.Sum()
		if !big {
			return math.Float64bits(got) == math.Float64bits(flat)
		}
		return math.Abs(got-flat) <= 1e-12*(absSum+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKernelsEmptyShapes(t *testing.T) {
	empty := NewMatrix(0, 0)
	if got := empty.Transpose(); got.Rows != 0 || got.Cols != 0 {
		t.Fatalf("transpose of empty: %dx%d", got.Rows, got.Cols)
	}
	if s := empty.Sum(); s != 0 {
		t.Fatalf("sum of empty: %v", s)
	}
	out, err := ParallelMulMat(NewMatrix(0, 5), NewMatrix(5, 0), 4)
	if err != nil || out.Rows != 0 || out.Cols != 0 {
		t.Fatalf("0x5·5x0: %v %v", out, err)
	}
}

func TestParallelKernelShapeErrors(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(2, 3)
	if _, err := ParallelMulMat(a, b, 2); err == nil {
		t.Fatal("2x3·2x3 should fail")
	}
	if _, err := a.MulVec(NewVector(2)); err == nil {
		t.Fatal("MulVec length mismatch should fail")
	}
	if _, err := a.VecMul(NewVector(3)); err == nil {
		t.Fatal("VecMul length mismatch should fail")
	}
	if _, err := a.Add(NewMatrix(3, 2)); err == nil {
		t.Fatal("add shape mismatch should fail")
	}
}

// TestUnsetWorkerBudgetIsGOMAXPROCS: a zero or negative worker count asks for
// GOMAXPROCS, still subject to the unit and serial-threshold clamps.
func TestUnsetWorkerBudgetIsGOMAXPROCS(t *testing.T) {
	mp := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -5} {
		if got := planWorkers(workers, 1<<20, parallelMinWork); got != mp {
			t.Fatalf("planWorkers(%d) = %d, want GOMAXPROCS %d", workers, got, mp)
		}
		if got := planWorkers(workers, 1<<20, parallelMinWork-1); got != 1 {
			t.Fatalf("planWorkers(%d) under the serial threshold = %d, want 1", workers, got)
		}
	}
}

// genSpecialMat is genSparseMat with IEEE specials mixed in, and in some rows
// a 0 right next to an Inf: every kernel that claims the rank-1 sequence's
// bits has to turn that pair into NaN, which a zero short-cut would lose.
func genSpecialMat(r *rand.Rand, rows, cols int) *Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310}
	m := genSparseMat(r, rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		switch r.Intn(6) {
		case 0:
			row[r.Intn(cols)] = specials[r.Intn(len(specials))]
		case 1:
			if cols >= 2 {
				j := r.Intn(cols - 1)
				row[j], row[j+1] = 0, math.Inf(1)
			}
		}
	}
	return m
}

// naiveTransMulAddInto is the triple loop TransMulAddInto is pinned to: per
// output element, the panel rows' products added in ascending row order.
func naiveTransMulAddInto(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			for k := 0; k < a.Rows; k++ {
				dst.Data[i*dst.Cols+j] += a.Data[k*a.Cols+i] * b.Data[k*b.Cols+j]
			}
		}
	}
}

// bitsEqualModNaN is bitsEqual except that any NaN matches any NaN: the
// panel kernel's documented carve-out.
func bitsEqualModNaN(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// TestPropTransMulAddIntoBitExact pins the panel kernel to the naive triple
// loop and to the rank-1 sequence it batches: bit for bit on finite panels
// (zeros, −0 and denormals included, overflow to ±Inf and Inf−Inf too), and
// NaN for NaN on panels that carry NaN, ±Inf and 0 next to Inf.
func TestPropTransMulAddIntoBitExact(t *testing.T) {
	panelRows := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 80, 127, 128, 129, 260}
	f := func(seed int64, kRaw, aRaw, bRaw uint16, special bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k, da, db := panelRows[int(kRaw)%len(panelRows)], genMatDims(aRaw), genMatDims(bRaw)
		for k*da*db > 1<<22 {
			da, db = (da+1)/2, (db+1)/2
		}
		gen, same := genSparseMat, bitsEqual
		if special {
			gen, same = genSpecialMat, bitsEqualModNaN
		}
		A, B := gen(rng, k, da), gen(rng, k, db)
		if !special && k > 0 {
			// Finite entries whose products overflow and cancel to NaN.
			A.Data[0], B.Data[0] = 1e200, 1e200
			A.Data[(k-1)*da], B.Data[(k-1)*db] = -1e200, 1e200
			A.Data[rng.Intn(len(A.Data))] = math.Copysign(0, -1)
			B.Data[rng.Intn(len(B.Data))] = 5e-324
		}
		// A non-zero start: the products append onto what is stored.
		want := genMat(rng, da, db)
		got := want.Clone()
		naiveTransMulAddInto(want, A, B)
		if err := A.TransMulAddInto(got, B); err != nil || !same(got, want) {
			return false
		}
		// The rank-1 sequence is the same sum, one panel row at a time.
		seq := NewMatrix(da, db)
		for r := 0; r < k; r++ {
			if err := (&Vector{Data: A.Row(r)}).OuterAddInto(seq, &Vector{Data: B.Row(r)}); err != nil {
				return false
			}
		}
		one := NewMatrix(da, db)
		if err := A.TransMulAddInto(one, B); err != nil || !same(one, seq) {
			return false
		}
		// The upper-triangle Gram plus its mirror is the full AᵀA.
		full, sym := NewMatrix(da, da), NewMatrix(da, da)
		if err := A.TransMulAddInto(full, A); err != nil {
			return false
		}
		if err := A.GramAddUpperInto(sym); err != nil {
			return false
		}
		sym.MirrorUpper()
		return same(sym, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGramUpperMatchesMulMatAddInto pins the upper-triangle Gram plus its
// mirror to the zero-skipping product the matrix Gram sum used before it,
// MulMatAddInto(Transpose(X), X), by Float64bits. It holds under two
// preconditions, and the blocks here meet them: every entry of X is finite
// (mulMatBlock skips 0·Inf, the triangle kernel would add its NaN), and the
// accumulator holds no −0 (a skipped ±0 product would turn −0 into +0). With
// finite X a skipped product is ±0, which leaves a never-−0 sum as it is.
// Each case folds two blocks into one accumulator, the second after the first
// has left its upper triangle behind; the rows cross mulPanelK and the widths
// mulPanelCols.
func TestGramUpperMatchesMulMatAddInto(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// gen is a sparse finite block with an all-zero group of four rows,
	// −0, denormals, and ±1e200 whose products overflow to ±Inf and
	// cancel to NaN in the sum.
	gen := func(rows, cols int) *Matrix {
		x := genSparseMat(rng, rows, cols)
		if rows >= 4 {
			q := 4 * rng.Intn(rows/4)
			clear(x.Data[q*cols : (q+4)*cols])
		}
		x.Data[rng.Intn(len(x.Data))] = math.Copysign(0, -1)
		x.Data[rng.Intn(len(x.Data))] = 5e-324
		x.Data[rng.Intn(len(x.Data))] = -2.5e-310
		if rows >= 2 && cols >= 2 {
			last := (rows - 1) * cols
			x.Data[0], x.Data[1] = 1e200, 1e200
			x.Data[last], x.Data[last+1] = -1e200, 1e200
		}
		return x
	}
	for _, rows := range []int{1, 3, 4, 127, 128, 129} {
		for _, cols := range []int{1, 2, 511, 512, 513} {
			want, got := NewMatrix(cols, cols), NewMatrix(cols, cols)
			for _, x := range []*Matrix{gen(rows, cols), gen(3, cols)} {
				if err := x.Transpose().MulMatAddInto(want, x); err != nil {
					t.Fatal(err)
				}
				if err := x.GramAddUpperInto(got); err != nil {
					t.Fatal(err)
				}
			}
			got.MirrorUpper()
			if !bitsEqual(got, want) {
				t.Fatalf("%d×%d blocks: the mirrored upper triangle differs from MulMatAddInto(Xᵀ, X)", rows, cols)
			}
		}
	}
}

func TestTransMulAddIntoShapeErrors(t *testing.T) {
	a, b := NewMatrix(4, 3), NewMatrix(4, 5)
	if err := a.TransMulAddInto(NewMatrix(3, 5), NewMatrix(3, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("panel row mismatch: %v", err)
	}
	if err := a.TransMulAddInto(NewMatrix(5, 3), b); !errors.Is(err, ErrShape) {
		t.Fatalf("dst shape mismatch: %v", err)
	}
	if err := a.GramAddUpperInto(NewMatrix(3, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square Gram dst: %v", err)
	}
	if got := OuterPanelRows(100, 100); got != 80 {
		t.Fatalf("OuterPanelRows(100, 100) = %d, want 80", got)
	}
	for _, d := range []int{0, 1, 16, 1000, 1 << 20} {
		if k := OuterPanelRows(d, d); k < 4 || k > mulPanelK || k%4 != 0 {
			t.Fatalf("OuterPanelRows(%d, %d) = %d", d, d, k)
		}
	}
}
