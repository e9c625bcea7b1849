package main

// Naive float64 references, computed by the harness from the seeded data.
// The engine may sum in any order, so float results are compared with a
// tolerance relative to the largest reference entry; integer-valued data is
// compared exactly.

import (
	"fmt"
	"math"
)

const relTol = 1e-9

// maxAbs is the scale a result is compared against.
func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// closeTo reports the first entry of got that differs from want by more than
// tol times the largest entry of want.
func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d entries, want %d", len(got), len(want))
	}
	limit := tol * math.Max(maxAbs(want), math.SmallestNonzeroFloat64)
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= limit) {
			return fmt.Errorf("entry %d: got %v, want %v (|diff| %.3g > %.3g)", i, got[i], want[i], d, limit)
		}
	}
	return nil
}

// gramRef is XᵀX by the triple loop, row-major d×d.
func gramRef(data [][]float64) []float64 {
	d := len(data[0])
	g := make([]float64, d*d)
	for _, x := range data {
		for i, xi := range x {
			row := g[i*d : (i+1)*d]
			for j := i; j < d; j++ {
				row[j] += xi * x[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			g[i*d+j] = g[j*d+i]
		}
	}
	return g
}

// xtyRef is Xᵀy.
func xtyRef(data [][]float64, y []float64) []float64 {
	v := make([]float64, len(data[0]))
	for r, x := range data {
		for j, xj := range x {
			v[j] += xj * y[r]
		}
	}
	return v
}

// solveRef solves the d×d system a·x = b by Gaussian elimination with
// partial pivoting; a is row-major and is not modified.
func solveRef(a, b []float64) ([]float64, error) {
	d := len(b)
	m := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r*d+col]) > math.Abs(m[piv*d+col]) {
				piv = r
			}
		}
		if m[piv*d+col] == 0 {
			return nil, fmt.Errorf("oracle: singular normal equations at column %d", col)
		}
		if piv != col {
			for j := 0; j < d; j++ {
				m[piv*d+j], m[col*d+j] = m[col*d+j], m[piv*d+j]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		for r := col + 1; r < d; r++ {
			f := m[r*d+col] / m[col*d+col]
			if f == 0 {
				continue
			}
			for j := col; j < d; j++ {
				m[r*d+j] -= f * m[col*d+j]
			}
			x[r] -= f * x[col]
		}
	}
	for r := d - 1; r >= 0; r-- {
		s := x[r]
		for j := r + 1; j < d; j++ {
			s -= m[r*d+j] * x[j]
		}
		x[r] = s / m[r*d+r]
	}
	return x, nil
}

// argMaxMinRef is the paper's distance task in O(n²d): for each point the
// minimum of xᵢ·(A xⱼ) over j ≠ i, then the point whose minimum is largest.
// metric is row-major d×d.
func argMaxMinRef(data [][]float64, metric []float64) (id int, dist float64) {
	n, d := len(data), len(data[0])
	ax := make([][]float64, n)
	for j, x := range data {
		v := make([]float64, d)
		for r := 0; r < d; r++ {
			row := metric[r*d : (r+1)*d]
			var s float64
			for c, a := range row {
				s += a * x[c]
			}
			v[r] = s
		}
		ax[j] = v
	}
	id, dist = -1, math.Inf(-1)
	for i, xi := range data {
		lo := math.Inf(1)
		for j := range data {
			if j == i {
				continue
			}
			var s float64
			for c, a := range ax[j] {
				s += a * xi[c]
			}
			lo = math.Min(lo, s)
		}
		if lo > dist {
			id, dist = i, lo
		}
	}
	return id, dist
}
