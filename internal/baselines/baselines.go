// Package baselines holds what the three simulated comparator platforms
// (scidb, sparkml and systemml) share: the driver-side reductions of their
// per-partition partials and the arg-max that ends the distance computation.
package baselines

import (
	"fmt"
	"math"

	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// ReduceMatrices merges per-partition partials, charging each remote partial
// as serialized network traffic. prefix names the platform in its error.
func ReduceMatrices(cl *cluster.Cluster, partials []*linalg.Matrix, prefix string) (*linalg.Matrix, error) {
	var acc *linalg.Matrix
	for p, m := range partials {
		if m == nil {
			continue
		}
		if p != 0 {
			v, err := cl.SendValue(value.Matrix(m))
			if err != nil {
				return nil, err
			}
			m = v.Mat
		}
		if acc == nil {
			acc = m.Clone()
			continue
		}
		if err := acc.AddInPlace(m); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("%s: nothing to reduce", prefix)
	}
	return acc, nil
}

// SumVectors adds the per-partition partial d-vectors, skipping a partition
// that made none, in partition order.
func SumVectors(partials []*linalg.Vector, d int) (*linalg.Vector, error) {
	v := linalg.NewVector(d)
	for _, pv := range partials {
		if pv != nil {
			if err := v.AddInPlace(pv); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// Best is an arg-max in progress: the row with the largest value so far, Idx
// -1 before any.
type Best struct {
	Idx int
	Val float64
}

// NoBest is the arg-max of no rows.
func NoBest() Best { return Best{Idx: -1, Val: math.Inf(-1)} }

// ArgMax folds the partitions' bests in partition order, the first of equal
// values winning. prefix names the platform in its error.
func ArgMax(bests []Best, prefix string) (int, float64, error) {
	out := NoBest()
	for _, b := range bests {
		if b.Idx >= 0 && b.Val > out.Val {
			out = b
		}
	}
	if out.Idx < 0 {
		return 0, 0, fmt.Errorf("%s: no result", prefix)
	}
	return out.Idx, out.Val, nil
}
