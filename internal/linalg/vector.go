// Package linalg provides the dense linear-algebra kernels that back the
// engine's VECTOR and MATRIX column types. Everything is float64, row-major,
// and implemented from scratch on the standard library only.
//
// The kernels are deliberately allocation-explicit: operations that produce a
// new object allocate it, operations suffixed Into write into a caller-owned
// destination so hot loops (aggregation, blocked multiply) can reuse buffers.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is wrapped by every dimension-mismatch error in this package.
var ErrShape = errors.New("linalg: shape mismatch")

// Vector is a dense vector of float64 entries. In the relational extension
// there is no distinction between row and column vectors; each operation
// documents its own interpretation (matching the paper, §3.1).
type Vector struct {
	Data []float64
}

// NewVector returns a zero vector with n entries.
func NewVector(n int) *Vector {
	return &Vector{Data: make([]float64, n)}
}

// VectorOf returns a vector wrapping a copy of the given entries.
func VectorOf(entries ...float64) *Vector {
	d := make([]float64, len(entries))
	copy(d, entries)
	return &Vector{Data: d}
}

// Len returns the number of entries.
func (v *Vector) Len() int { return len(v.Data) }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return VectorOf(v.Data...)
}

// At returns entry i.
func (v *Vector) At(i int) float64 { return v.Data[i] }

// Set assigns entry i.
func (v *Vector) Set(i int, x float64) { v.Data[i] = x }

// Equal reports exact element-wise equality.
func (v *Vector) Equal(w *Vector) bool {
	if v.Len() != w.Len() {
		return false
	}
	for i, x := range v.Data {
		if x != w.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports element-wise equality within tol.
func (v *Vector) EqualApprox(w *Vector, tol float64) bool {
	if v.Len() != w.Len() {
		return false
	}
	for i, x := range v.Data {
		if math.Abs(x-w.Data[i]) > tol {
			return false
		}
	}
	return true
}

func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v.Data {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(']')
	return b.String()
}

func sameLen(a, b *Vector, op string) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%w: %s over vectors of length %d and %d", ErrShape, op, a.Len(), b.Len())
	}
	return nil
}

// Add returns v + w element-wise.
func (v *Vector) Add(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "add"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x + w.Data[i]
	}
	return out, nil
}

// AddInPlace accumulates w into v. Used by the SUM aggregate.
func (v *Vector) AddInPlace(w *Vector) error {
	if err := sameLen(v, w, "add"); err != nil {
		return err
	}
	for i, x := range w.Data {
		v.Data[i] += x
	}
	return nil
}

// Sub returns v - w element-wise.
func (v *Vector) Sub(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "subtract"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x - w.Data[i]
	}
	return out, nil
}

// Mul returns the Hadamard (element-wise) product v ⊙ w.
func (v *Vector) Mul(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "multiply"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x * w.Data[i]
	}
	return out, nil
}

// Div returns the element-wise quotient v / w.
func (v *Vector) Div(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "divide"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x / w.Data[i]
	}
	return out, nil
}

// ScaleAdd returns v + s element-wise (scalar broadcast, per paper §3.2).
func (v *Vector) ScaleAdd(s float64) *Vector {
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x + s
	}
	return out
}

// Scale returns s * v.
func (v *Vector) Scale(s float64) *Vector {
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x * s
	}
	return out
}

// ScaleDiv returns v / s element-wise.
func (v *Vector) ScaleDiv(s float64) *Vector {
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = x / s
	}
	return out
}

// ScaleRDiv returns s / v element-wise (scalar on the left).
func (v *Vector) ScaleRDiv(s float64) *Vector {
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = s / x
	}
	return out
}

// ScaleRSub returns s - v element-wise (scalar on the left).
func (v *Vector) ScaleRSub(s float64) *Vector {
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = s - x
	}
	return out
}

// Dot returns the inner product <v, w>.
func (v *Vector) Dot(w *Vector) (float64, error) {
	if err := sameLen(v, w, "inner_product"); err != nil {
		return 0, err
	}
	var s float64
	for i, x := range v.Data {
		s += x * w.Data[i]
	}
	return s, nil
}

// DotLanes sets out[i] = a[i].Dot(b[i]) for each lane i named by sel (every
// lane of a when sel is nil). It takes four lanes at a time, each with its own
// accumulator adding its products in ascending index order as Dot does, so
// every out[i] has Dot's bits: the interleave only hides the latency of each
// lane's chain of adds. A group of four whose lengths differ, and the last
// lanes, go through Dot. It returns the first lane's length mismatch.
func DotLanes(out []float64, a, b []*Vector, sel []int32) error {
	n := len(a)
	if sel != nil {
		n = len(sel)
	}
	lane := func(k int) int {
		if sel == nil {
			return k
		}
		return int(sel[k])
	}
	k := 0
	for ; k+4 <= n; k += 4 {
		i0, i1, i2, i3 := lane(k), lane(k+1), lane(k+2), lane(k+3)
		a0, a1, a2, a3 := a[i0].Data, a[i1].Data, a[i2].Data, a[i3].Data
		b0, b1, b2, b3 := b[i0].Data, b[i1].Data, b[i2].Data, b[i3].Data
		m := len(a0)
		if len(a1) != m || len(a2) != m || len(a3) != m || len(b0) != m || len(b1) != m || len(b2) != m || len(b3) != m {
			for _, i := range [4]int{i0, i1, i2, i3} {
				d, err := a[i].Dot(b[i])
				if err != nil {
					return err
				}
				out[i] = d
			}
			continue
		}
		out[i0], out[i1], out[i2], out[i3] = dot4(a0, a1, a2, a3, b0, b1, b2, b3)
	}
	for ; k < n; k++ {
		i := lane(k)
		d, err := a[i].Dot(b[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// dot4 is four inner products of vectors of one length, interleaved. Its own
// function keeps the loop's operands in registers. A NaN times a NaN keeps
// the payload of the multiply's register operand; written b·a, each product
// compiles with a's entry in the register, as Dot's x·w does, so NaN payloads
// match Dot's too (TestDotLanesMatchesDot checks it).
func dot4(a0, a1, a2, a3, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	m := len(a0)
	a1, a2, a3 = a1[:m], a2[:m], a3[:m]
	b0, b1, b2, b3 = b0[:m], b1[:m], b2[:m], b3[:m]
	for j := 0; j < m; j++ {
		s0 += b0[j] * a0[j]
		s1 += b1[j] * a1[j]
		s2 += b2[j] * a2[j]
		s3 += b3[j] * a3[j]
	}
	return s0, s1, s2, s3
}

// Outer returns the outer product v wᵀ as a Len(v)×Len(w) matrix.
func (v *Vector) Outer(w *Vector) *Matrix {
	m := NewMatrix(v.Len(), w.Len())
	for i, x := range v.Data {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, y := range w.Data {
			row[j] = x * y
		}
	}
	return m
}

// OuterAddInto accumulates v wᵀ into dst, which must be Len(v)×Len(w).
// This is the allocation-free kernel behind SUM(outer_product(x, x)).
func (v *Vector) OuterAddInto(dst *Matrix, w *Vector) error {
	if dst.Rows != v.Len() || dst.Cols != w.Len() {
		return fmt.Errorf("%w: outer accumulate %dx%d into %dx%d", ErrShape, v.Len(), w.Len(), dst.Rows, dst.Cols)
	}
	for i, x := range v.Data {
		row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, y := range w.Data {
			row[j] += x * y
		}
	}
	return nil
}

// Sum returns the sum of all entries.
func (v *Vector) Sum() float64 {
	var s float64
	for _, x := range v.Data {
		s += x
	}
	return s
}

// Min returns the minimum entry; +Inf for the empty vector.
func (v *Vector) Min() float64 {
	m := math.Inf(1)
	for _, x := range v.Data {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum entry; -Inf for the empty vector.
func (v *Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v.Data {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMin returns the index of the minimum entry (-1 if empty).
func (v *Vector) ArgMin() int {
	idx, m := -1, math.Inf(1)
	for i, x := range v.Data {
		if x < m {
			m, idx = x, i
		}
	}
	return idx
}

// ArgMax returns the index of the maximum entry (-1 if empty).
func (v *Vector) ArgMax() int {
	idx, m := -1, math.Inf(-1)
	for i, x := range v.Data {
		if x > m {
			m, idx = x, i
		}
	}
	return idx
}

// Norm2 returns the Euclidean norm.
func (v *Vector) Norm2() float64 {
	var s float64
	for _, x := range v.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// AsRowMatrix returns a 1×n matrix sharing no storage with v.
func (v *Vector) AsRowMatrix() *Matrix {
	m := NewMatrix(1, v.Len())
	copy(m.Data, v.Data)
	return m
}

// AsColMatrix returns an n×1 matrix sharing no storage with v.
func (v *Vector) AsColMatrix() *Matrix {
	m := NewMatrix(v.Len(), 1)
	copy(m.Data, v.Data)
	return m
}

// MinPairwise returns the element-wise minimum of v and w.
func (v *Vector) MinPairwise(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "min"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = math.Min(x, w.Data[i])
	}
	return out, nil
}

// MaxPairwise returns the element-wise maximum of v and w.
func (v *Vector) MaxPairwise(w *Vector) (*Vector, error) {
	if err := sameLen(v, w, "max"); err != nil {
		return nil, err
	}
	out := NewVector(v.Len())
	for i, x := range v.Data {
		out.Data[i] = math.Max(x, w.Data[i])
	}
	return out, nil
}
