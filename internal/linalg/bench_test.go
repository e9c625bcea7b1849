package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkOuterAccumulate times the three ways SUM(outer_product(x, y)) can
// absorb OuterPanelRows(d, d) rows into a d×d accumulator: one rank-1 update
// per row; the rows copied into two panels and one AᵀB panel multiply; the
// rows copied into one panel and the upper-triangle multiply (whose mirror is
// paid once per aggregate state, not per panel, and is left out). One op is
// one panel's worth of rows in all three.
func BenchmarkOuterAccumulate(b *testing.B) {
	for _, d := range []int{16, 100, 1000} {
		k := OuterPanelRows(d, d)
		src := genMat(rand.New(rand.NewSource(int64(d))), k, d)
		rows := make([]*Vector, k)
		for r := range rows {
			rows[r] = &Vector{Data: src.Row(r)}
		}
		pa, pb := NewMatrix(k, d), NewMatrix(k, d)
		run := func(name string, flops int, f func(acc *Matrix) error) {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				acc := NewMatrix(d, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f(acc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/row")
			})
		}
		run("rank1", 2*k*d*d, func(acc *Matrix) error {
			for _, v := range rows {
				if err := v.OuterAddInto(acc, v); err != nil {
					return err
				}
			}
			return nil
		})
		run("panel", 2*k*d*d, func(acc *Matrix) error {
			for r, v := range rows {
				copy(pa.Row(r), v.Data)
				copy(pb.Row(r), v.Data)
			}
			return pa.TransMulAddInto(acc, pb)
		})
		run("panel_sym", k*d*(d+1), func(acc *Matrix) error {
			for r, v := range rows {
				copy(pa.Row(r), v.Data)
			}
			return pa.GramAddUpperInto(acc)
		})
	}
}

// BenchmarkGramBlock times one 100×500 block of the matrix Gram sum
// SUM(matrix_multiply(trans_matrix(X), X)) each way: the transposed copy
// plus MulMatAddInto that the unfused product runs, and the upper-triangle
// kernel the fused sum runs (its one MirrorUpper per group is not included).
func BenchmarkGramBlock(b *testing.B) {
	x := genMat(rand.New(rand.NewSource(1)), 100, 500)
	for _, leg := range []struct {
		name string
		f    func(acc *Matrix) error
	}{
		{"transpose_mul", func(acc *Matrix) error { return x.Transpose().MulMatAddInto(acc, x) }},
		{"gram_upper", x.GramAddUpperInto},
	} {
		b.Run(leg.name, func(b *testing.B) {
			acc := NewMatrix(x.Cols, x.Cols)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.f(acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
