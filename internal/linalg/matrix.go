package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 entries.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must share a length.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowVector returns a copy of row i as a Vector.
func (m *Matrix) RowVector(i int) *Vector {
	return VectorOf(m.Row(i)...)
}

// ColVector returns a copy of column j as a Vector.
func (m *Matrix) ColVector(j int) *Vector {
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		v.Data[i] = m.Data[i*m.Cols+j]
	}
	return v
}

// Equal reports exact element-wise equality.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, x := range m.Data {
		if x != n.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports element-wise equality within tol.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, x := range m.Data {
		if math.Abs(x-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func sameShape(a, b *Matrix, op string) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("%w: %s over matrices %dx%d and %dx%d", ErrShape, op, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// Add returns m + n element-wise.
func (m *Matrix) Add(n *Matrix) (*Matrix, error) {
	if err := sameShape(m, n, "add"); err != nil {
		return nil, err
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x + n.Data[i]
	}
	return out, nil
}

// AddInPlace accumulates n into m. Used by the SUM aggregate.
func (m *Matrix) AddInPlace(n *Matrix) error {
	if err := sameShape(m, n, "add"); err != nil {
		return err
	}
	for i, x := range n.Data {
		m.Data[i] += x
	}
	return nil
}

// Sub returns m - n element-wise.
func (m *Matrix) Sub(n *Matrix) (*Matrix, error) {
	if err := sameShape(m, n, "subtract"); err != nil {
		return nil, err
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x - n.Data[i]
	}
	return out, nil
}

// Hadamard returns the element-wise product m ⊙ n (SQL operator *).
func (m *Matrix) Hadamard(n *Matrix) (*Matrix, error) {
	if err := sameShape(m, n, "multiply"); err != nil {
		return nil, err
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x * n.Data[i]
	}
	return out, nil
}

// Div returns the element-wise quotient m / n.
func (m *Matrix) Div(n *Matrix) (*Matrix, error) {
	if err := sameShape(m, n, "divide"); err != nil {
		return nil, err
	}
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x / n.Data[i]
	}
	return out, nil
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x * s
	}
	return out
}

// ScaleAdd returns m + s element-wise (scalar broadcast).
func (m *Matrix) ScaleAdd(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x + s
	}
	return out
}

// ScaleDiv returns m / s element-wise.
func (m *Matrix) ScaleDiv(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x / s
	}
	return out
}

// ScaleRDiv returns s / m element-wise (scalar on the left).
func (m *Matrix) ScaleRDiv(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = s / x
	}
	return out
}

// ScaleRSub returns s - m element-wise (scalar on the left).
func (m *Matrix) ScaleRSub(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = s - x
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	// Blocked transpose for cache friendliness on large matrices.
	const bs = 64
	for i0 := 0; i0 < m.Rows; i0 += bs {
		imax := min(i0+bs, m.Rows)
		for j0 := 0; j0 < m.Cols; j0 += bs {
			jmax := min(j0+bs, m.Cols)
			for i := i0; i < imax; i++ {
				for j := j0; j < jmax; j++ {
					out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
				}
			}
		}
	}
	return out
}

// MulMat returns the matrix product m · n.
func (m *Matrix) MulMat(n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("%w: matrix_multiply %dx%d by %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := NewMatrix(m.Rows, n.Cols)
	m.mulMatInto(out, n)
	return out, nil
}

// MulMatAddInto accumulates m · n into dst (dst must be m.Rows × n.Cols).
// This is the kernel behind SUM(matrix_multiply(a, b)) in blocked plans.
func (m *Matrix) MulMatAddInto(dst, n *Matrix) error {
	if m.Cols != n.Rows {
		return fmt.Errorf("%w: matrix_multiply %dx%d by %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	if dst.Rows != m.Rows || dst.Cols != n.Cols {
		return fmt.Errorf("%w: accumulate %dx%d into %dx%d", ErrShape, m.Rows, n.Cols, dst.Rows, dst.Cols)
	}
	m.mulMatInto(dst, n)
	return nil
}

// mulPanelCols is the column-panel width of the tiled multiply kernel: the
// working set of one microtile pass (two output row panels plus four
// streamed rows of n) is 6·512·8 bytes ≈ 24 KB, inside a typical 32 KB L1d,
// so wide right-hand sides never thrash the cache.
const mulPanelCols = 512

// mulPanelK is the k-block depth: a mulPanelK × mulPanelCols panel of n
// (512 KB) stays L2-resident while every row pair of m streams over it, so
// n is read from memory once per panel instead of once per row pair.
const mulPanelK = 128

// mulMatInto accumulates m·n into out via the tiled kernel.
func (m *Matrix) mulMatInto(out, n *Matrix) {
	m.mulMatRowsInto(out, n, 0, m.Rows)
}

// mulMatRowsInto accumulates rows [i0, i1) of m·n into the same rows of out.
// The kernel is cache-blocked over mulPanelCols-wide column panels and
// mulPanelK-deep k blocks of n, and register-blocked on a 2×4 microtile:
// two output rows share the four streamed rows of n (halving loads per
// multiply-add), and four k steps amortize the load/store of each output
// element. Per output element the k terms still accumulate left-to-right in
// ascending k order — k blocks are visited ascending and each appends its
// ascending-k partial products onto the stored element — so the result is
// bit-for-bit identical to the straightforward ikj reference kernel: tiling
// and row-parallel dispatch never change a single ulp.
func (m *Matrix) mulMatRowsInto(out, n *Matrix, i0, i1 int) {
	K := m.Cols
	for p0 := 0; p0 < n.Cols; p0 += mulPanelCols {
		p1 := min(p0+mulPanelCols, n.Cols)
		for k0 := 0; k0 < K; k0 += mulPanelK {
			k1 := min(k0+mulPanelK, K)
			m.mulMatBlock(out, n, i0, i1, p0, p1, k0, k1)
		}
	}
}

// mulMatBlock accumulates the k-range [k0, k1) contribution of rows
// [i0, i1) of m·n into columns [p0, p1) of out.
func (m *Matrix) mulMatBlock(out, n *Matrix, i0, i1, p0, p1, k0, k1 int) {
	K := m.Cols
	var i int
	for i = i0; i+2 <= i1; i += 2 {
		mr0 := m.Data[i*K : (i+1)*K]
		mr1 := m.Data[(i+1)*K : (i+2)*K]
		or0 := out.Data[i*out.Cols+p0 : i*out.Cols+p1]
		or1 := out.Data[(i+1)*out.Cols+p0 : (i+1)*out.Cols+p1]
		_ = or1[len(or0)-1]
		var k int
		for k = k0; k+4 <= k1; k += 4 {
			a0, a1, a2, a3 := mr0[k], mr0[k+1], mr0[k+2], mr0[k+3]
			b0, b1, b2, b3 := mr1[k], mr1[k+1], mr1[k+2], mr1[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 &&
				b0 == 0 && b1 == 0 && b2 == 0 && b3 == 0 {
				continue
			}
			n0 := n.Data[k*n.Cols+p0 : k*n.Cols+p1]
			n1 := n.Data[(k+1)*n.Cols+p0 : (k+1)*n.Cols+p1]
			n2 := n.Data[(k+2)*n.Cols+p0 : (k+2)*n.Cols+p1]
			n3 := n.Data[(k+3)*n.Cols+p0 : (k+3)*n.Cols+p1]
			// Anchor the shared panel length so the compiler drops the
			// bounds checks inside the hot loop.
			_ = n0[len(or0)-1]
			_ = n1[len(or0)-1]
			_ = n2[len(or0)-1]
			_ = n3[len(or0)-1]
			for j := range or0 {
				v0, v1, v2, v3 := n0[j], n1[j], n2[j], n3[j]
				or0[j] = or0[j] + a0*v0 + a1*v1 + a2*v2 + a3*v3
				or1[j] = or1[j] + b0*v0 + b1*v1 + b2*v2 + b3*v3
			}
		}
		for ; k < k1; k++ {
			a, b := mr0[k], mr1[k]
			if a == 0 && b == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols+p0 : k*n.Cols+p1]
			_ = nrow[len(or0)-1]
			for j := range or0 {
				v := nrow[j]
				or0[j] += a * v
				or1[j] += b * v
			}
		}
	}
	for ; i < i1; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*out.Cols+p0 : i*out.Cols+p1]
		var k int
		for k = k0; k+4 <= k1; k += 4 {
			a0, a1, a2, a3 := mrow[k], mrow[k+1], mrow[k+2], mrow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			n0 := n.Data[k*n.Cols+p0 : k*n.Cols+p1]
			n1 := n.Data[(k+1)*n.Cols+p0 : (k+1)*n.Cols+p1]
			n2 := n.Data[(k+2)*n.Cols+p0 : (k+2)*n.Cols+p1]
			n3 := n.Data[(k+3)*n.Cols+p0 : (k+3)*n.Cols+p1]
			_ = n0[len(orow)-1]
			_ = n1[len(orow)-1]
			_ = n2[len(orow)-1]
			_ = n3[len(orow)-1]
			for j := range orow {
				orow[j] = orow[j] + a0*n0[j] + a1*n1[j] + a2*n2[j] + a3*n3[j]
			}
		}
		for ; k < k1; k++ {
			a := mrow[k]
			if a == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols+p0 : k*n.Cols+p1]
			_ = nrow[len(orow)-1]
			for j := range orow {
				orow[j] += a * nrow[j]
			}
		}
	}
}

// outerPanelBytes bounds the two row panels a SUM(outer_product) state
// buffers before one TransMulAddInto: with the four streamed rows of n and
// two output rows in L1, the panels themselves only need to stay L2-resident.
const outerPanelBytes = 128 << 10

// OuterPanelRows is the row count k of the panels that feed TransMulAddInto
// for da- and db-long vectors: as many rows as outerPanelBytes holds, a
// multiple of the kernel's 4-row step, at least one step and at most one
// mulPanelK block.
func OuterPanelRows(da, db int) int {
	k := outerPanelBytes / 8 / max(da+db, 1)
	return max(4, min(mulPanelK, k&^3))
}

// TransMulAddInto accumulates mᵀ · n into dst: m is k×dst.Rows and n is
// k×dst.Cols, two row panels sharing their row count k. It is the batched
// form of k rank-1 updates — row r of m and n contributes exactly what
// m.Row(r).OuterAddInto(dst, n.Row(r)) would — and it keeps that sequence's
// values: per output element the k products append onto the stored value in
// ascending r, and unlike mulMatBlock no zero multiplicand is skipped, so
// 0·Inf stays NaN just as in OuterAddInto. The results agree bit for bit with
// one carve-out: when an add meets two NaNs of different sign or payload,
// which one it returns depends on the operand order the compiler picked, so
// where the rank-1 sequence leaves a NaN this leaves a NaN, possibly another
// one. Panels of finite entries never produce such an add (their products are
// finite or ±Inf), which is how exec keeps full bit identity.
func (m *Matrix) TransMulAddInto(dst, n *Matrix) error {
	if m.Rows != n.Rows {
		return fmt.Errorf("%w: panel accumulate over %d and %d rows", ErrShape, m.Rows, n.Rows)
	}
	if dst.Rows != m.Cols || dst.Cols != n.Cols {
		return fmt.Errorf("%w: outer accumulate %dx%d into %dx%d", ErrShape, m.Cols, n.Cols, dst.Rows, dst.Cols)
	}
	m.transMulInto(dst, n, false)
	return nil
}

// GramAddUpperInto accumulates the upper triangle (j ≥ i) of mᵀ · m into the
// square dst, half the multiplies of TransMulAddInto(dst, m). Entries below
// the diagonal are left unspecified (the 2-row microtile touches some of
// them); MirrorUpper overwrites them all.
func (m *Matrix) GramAddUpperInto(dst *Matrix) error {
	if dst.Rows != m.Cols || dst.Cols != m.Cols {
		return fmt.Errorf("%w: outer accumulate %dx%d into %dx%d", ErrShape, m.Cols, m.Cols, dst.Rows, dst.Cols)
	}
	m.transMulInto(dst, m, true)
	return nil
}

// MirrorUpper copies the upper triangle of a square matrix onto the lower
// one. After GramAddUpperInto this completes the Gram matrix: x_i·x_j and
// x_j·x_i are the same bits (for a non-NaN product) and both triangles see
// the same accumulation order, so the mirrored entry is the one a full
// accumulation would hold.
func (m *Matrix) MirrorUpper() {
	for i := 1; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : i*m.Cols+i]
		for j := range row {
			row[j] = m.Data[j*m.Cols+i]
		}
	}
}

// transMulInto is mulMatRowsInto with the left operand read transposed (its
// coefficients stride down a column of m instead of along a row) and without
// the zero short-cut: the same column panels, k blocks and 2×4 microtile, so
// each output element is loaded and stored once per four panel rows instead
// of once per row. With upper set, output row i starts at column i.
func (m *Matrix) transMulInto(out, n *Matrix, upper bool) {
	for p0 := 0; p0 < n.Cols; p0 += mulPanelCols {
		p1 := min(p0+mulPanelCols, n.Cols)
		for k0 := 0; k0 < m.Rows; k0 += mulPanelK {
			k1 := min(k0+mulPanelK, m.Rows)
			m.transMulBlock(out, n, upper, p0, p1, k0, k1)
		}
	}
}

// transMulBlock accumulates the panel-row range [k0, k1) contribution of
// mᵀ·n into columns [p0, p1) of out.
func (m *Matrix) transMulBlock(out, n *Matrix, upper bool, p0, p1, k0, k1 int) {
	da, db := m.Cols, n.Cols
	var i int
	for i = 0; i+2 <= da; i += 2 {
		lo := p0
		if upper && i > lo {
			lo = i
		}
		if lo >= p1 {
			break
		}
		or0 := out.Data[i*db+lo : i*db+p1]
		or1 := out.Data[(i+1)*db+lo : (i+1)*db+p1]
		_ = or1[len(or0)-1]
		var k int
		for k = k0; k+4 <= k1; k += 4 {
			mc := m.Data[k*da+i : (k+3)*da+i+2]
			a0, a1, a2, a3 := mc[0], mc[da], mc[2*da], mc[3*da]
			b0, b1, b2, b3 := mc[1], mc[da+1], mc[2*da+1], mc[3*da+1]
			n0 := n.Data[k*db+lo : k*db+p1]
			n1 := n.Data[(k+1)*db+lo : (k+1)*db+p1]
			n2 := n.Data[(k+2)*db+lo : (k+2)*db+p1]
			n3 := n.Data[(k+3)*db+lo : (k+3)*db+p1]
			// Anchor the shared panel length so the compiler drops the
			// bounds checks inside the hot loop.
			_ = n0[len(or0)-1]
			_ = n1[len(or0)-1]
			_ = n2[len(or0)-1]
			_ = n3[len(or0)-1]
			for j := range or0 {
				v0, v1, v2, v3 := n0[j], n1[j], n2[j], n3[j]
				or0[j] = or0[j] + a0*v0 + a1*v1 + a2*v2 + a3*v3
				or1[j] = or1[j] + b0*v0 + b1*v1 + b2*v2 + b3*v3
			}
		}
		for ; k < k1; k++ {
			a, b := m.Data[k*da+i], m.Data[k*da+i+1]
			nrow := n.Data[k*db+lo : k*db+p1]
			_ = nrow[len(or0)-1]
			for j := range or0 {
				v := nrow[j]
				or0[j] += a * v
				or1[j] += b * v
			}
		}
	}
	if i < da {
		lo := p0
		if upper && i > lo {
			lo = i
		}
		if lo >= p1 {
			return
		}
		orow := out.Data[i*db+lo : i*db+p1]
		for k := k0; k < k1; k++ {
			a := m.Data[k*da+i]
			nrow := n.Data[k*db+lo : k*db+p1]
			_ = nrow[len(orow)-1]
			for j := range orow {
				orow[j] += a * nrow[j]
			}
		}
	}
}

// RefMulMat multiplies with the seed scalar kernel: the plain ikj loop that
// predates tiling, kept verbatim as (a) the bit-for-bit reference that the
// tiled and parallel kernels are property-tested against and (b) the
// baseline the kernel benchmark reports speedups over.
func RefMulMat(m, n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("%w: matrix_multiply %dx%d by %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := NewMatrix(m.Rows, n.Cols)
	m.refMulMatInto(out, n)
	return out, nil
}

// refMulMatInto is the seed ikj kernel: streams n and out row-wise, skips
// zero left-hand entries.
func (m *Matrix) refMulMatInto(out, n *Matrix) {
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, b := range nrow {
				orow[j] += a * b
			}
		}
	}
}

// MulVec returns m · v, treating v as a column vector.
func (m *Matrix) MulVec(v *Vector) (*Vector, error) {
	if m.Cols != v.Len() {
		return nil, fmt.Errorf("%w: matrix_vector_multiply %dx%d by vector of length %d", ErrShape, m.Rows, m.Cols, v.Len())
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * v.Data[j]
		}
		out.Data[i] = s
	}
	return out, nil
}

// VecMul returns vᵀ · m, treating v as a row vector.
func (m *Matrix) VecMul(v *Vector) (*Vector, error) {
	if m.Rows != v.Len() {
		return nil, fmt.Errorf("%w: vector_matrix_multiply vector of length %d by %dx%d", ErrShape, v.Len(), m.Rows, m.Cols)
	}
	out := NewVector(m.Cols)
	for i, a := range v.Data {
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range row {
			out.Data[j] += a * b
		}
	}
	return out, nil
}

// Diag returns the main diagonal of a square matrix.
func (m *Matrix) Diag() (*Vector, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: diag of non-square %dx%d matrix", ErrShape, m.Rows, m.Cols)
	}
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		v.Data[i] = m.At(i, i)
	}
	return v, nil
}

// DiagMatrix returns the square matrix with v on the main diagonal.
func DiagMatrix(v *Vector) *Matrix {
	m := NewMatrix(v.Len(), v.Len())
	for i, x := range v.Data {
		m.Set(i, i, x)
	}
	return m
}

// Trace returns the sum of the main diagonal of a square matrix.
func (m *Matrix) Trace() (float64, error) {
	if m.Rows != m.Cols {
		return 0, fmt.Errorf("%w: trace of non-square %dx%d matrix", ErrShape, m.Rows, m.Cols)
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.At(i, i)
	}
	return s, nil
}

// Inverse returns m⁻¹ computed by Gauss-Jordan elimination with partial
// pivoting. It returns an error for non-square or (numerically) singular
// input.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: inverse of non-square %dx%d matrix", ErrShape, m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest |a[r][col]| for r >= col.
		pivot, pmax := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > pmax {
				pivot, pmax = r, abs
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("linalg: matrix_inverse of singular matrix (pivot %d)", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		scaleRow(a, col, 1/p)
		scaleRow(inv, col, 1/p)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(a, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

// Solve returns x with m·x = b via the inverse path. b is treated as a column
// vector. Intended for the small normal-equation systems in the examples.
func (m *Matrix) Solve(b *Vector) (*Vector, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b)
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(m *Matrix, i int, s float64) {
	r := m.Row(i)
	for k := range r {
		r[k] *= s
	}
}

// axpyRow adds f * row[src] to row[dst].
func axpyRow(m *Matrix, dst, src int, f float64) {
	rd, rs := m.Row(dst), m.Row(src)
	for k := range rd {
		rd[k] += f * rs[k]
	}
}

// reduceChunk fixes Sum's association: entries are added left to right
// within reduceChunk-entry chunks, and the chunk partials in ascending order.
const reduceChunk = 1 << 15

// Sum returns the sum of all entries, associated as reduceChunk says. Up to
// one chunk that is plain left-to-right summation; beyond it the result can
// differ from left to right by ordinary rounding.
func (m *Matrix) Sum() float64 {
	var total float64
	for lo := 0; lo < len(m.Data); lo += reduceChunk {
		var partial float64
		for _, x := range m.Data[lo:min(lo+reduceChunk, len(m.Data))] {
			partial += x
		}
		total += partial
	}
	return total
}

// Min returns the minimum entry; +Inf for the empty matrix.
func (m *Matrix) Min() float64 {
	s := math.Inf(1)
	for _, x := range m.Data {
		if x < s {
			s = x
		}
	}
	return s
}

// Max returns the maximum entry; -Inf for the empty matrix.
func (m *Matrix) Max() float64 {
	s := math.Inf(-1)
	for _, x := range m.Data {
		if x > s {
			s = x
		}
	}
	return s
}

// RowMins returns the per-row minimum (SystemML's rowMins).
func (m *Matrix) RowMins() *Vector {
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := math.Inf(1)
		for _, x := range row {
			if x < s {
				s = x
			}
		}
		v.Data[i] = s
	}
	return v
}

// RowMaxs returns the per-row maximum.
func (m *Matrix) RowMaxs() *Vector {
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := math.Inf(-1)
		for _, x := range row {
			if x > s {
				s = x
			}
		}
		v.Data[i] = s
	}
	return v
}

// RowSums returns the per-row sum.
func (m *Matrix) RowSums() *Vector {
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, x := range m.Row(i) {
			s += x
		}
		v.Data[i] = s
	}
	return v
}

// ColSums returns the per-column sum.
func (m *Matrix) ColSums() *Vector {
	v := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			v.Data[j] += x
		}
	}
	return v
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// SubMatrix returns the copy of rows [r0,r1) and columns [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) (*Matrix, error) {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		return nil, fmt.Errorf("%w: submatrix [%d:%d, %d:%d] of %dx%d", ErrShape, r0, r1, c0, c1, m.Rows, m.Cols)
	}
	out := NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out, nil
}

// SetSubMatrix copies src into m starting at (r0, c0).
func (m *Matrix) SetSubMatrix(r0, c0 int, src *Matrix) error {
	if r0 < 0 || c0 < 0 || r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		return fmt.Errorf("%w: set submatrix %dx%d at (%d,%d) of %dx%d", ErrShape, src.Rows, src.Cols, r0, c0, m.Rows, m.Cols)
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Row(i))
	}
	return nil
}
