package value

import (
	"math"

	"relalg/internal/linalg"
)

func vecOf(data []float64) *linalg.Vector {
	return &linalg.Vector{Data: data}
}

func matOf(rows, cols int, data []float64) *linalg.Matrix {
	return &linalg.Matrix{Rows: rows, Cols: cols, Data: data}
}

// Hash returns a 64-bit hash of the value, used by hash partitioning and hash
// joins. Numeric values hash by their double representation so INTEGER 3 and
// DOUBLE 3.0 land in the same bucket (they also compare equal). Col.HashesInto
// hashes column lanes through the same per-kind helpers.
func (v Value) Hash() uint64 {
	switch v.Kind {
	case KindNull:
		return fnvMix(fnvOffset64, 0)
	case KindBool:
		return hashBool(v.B)
	case KindInt:
		return hashDouble(float64(v.I))
	case KindDouble, KindLabeledScalar:
		return hashDouble(v.D)
	case KindString:
		return hashString(v.S)
	case KindVector:
		return hashVector(v.Vec)
	case KindMatrix:
		return hashMatrix(v.Mat)
	}
	return fnvOffset64
}

// The per-kind hashes: FNV-1a over the little-endian bytes of each word.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds the 8 little-endian bytes of x into h.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

func hashBool(b bool) uint64 {
	if b {
		return fnvMix(fnvOffset64, 1)
	}
	return fnvMix(fnvOffset64, 2)
}

func hashDouble(d float64) uint64 { return fnvMix(fnvOffset64, doubleBits(d)) }

func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hashVector(v *linalg.Vector) uint64 { return hashFloats(fnvOffset64, v.Data) }

func hashMatrix(m *linalg.Matrix) uint64 {
	return hashFloats(fnvMix(fnvOffset64, uint64(m.Cols)), m.Data)
}

func hashFloats(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h = fnvMix(h, doubleBits(x))
	}
	return h
}

func doubleBits(d float64) uint64 {
	if d == 0 {
		d = 0 // normalize -0.0 to +0.0
	}
	return math.Float64bits(d)
}

// KeyHashInit is the seed of a key-tuple hash.
const KeyHashInit = uint64(fnvOffset64)

// foldKeyHash folds one key value's hash into a running key-tuple hash.
func foldKeyHash(h, vh uint64) uint64 { return (h ^ vh) * fnvPrime64 }

// HashRowKey hashes the projection of row onto the given column indexes: the
// key-tuple hash that table placement (PARTITION BY HASH), Cluster.Shuffle and
// the executor's columnar CombineKeyHashes all compute, so a table placed on a
// key sits where an exchange on that key would send its rows.
func HashRowKey(row Row, cols []int) uint64 {
	h := KeyHashInit
	for _, c := range cols {
		h = foldKeyHash(h, row[c].Hash())
	}
	return h
}

// KeyEqual reports whether two rows agree on the given key columns, using
// SQL equality (numeric kinds compare by value).
func KeyEqual(a, b Row, acols, bcols []int) bool {
	for i := range acols {
		if !keyValuesEqual(a[acols[i]], b[bcols[i]]) {
			return false
		}
	}
	return true
}

// KeyLanesEqual reports whether lane i of a and lane j of b are equal keys,
// as KeyEqual compares them, reading typed lanes without boxing them.
func KeyLanesEqual(a *Col, i int, b *Col, j int) bool {
	if !a.Generic && !b.Generic && a.Kind == b.Kind {
		switch a.Kind {
		case KindInt:
			return float64(a.I[i]) == float64(b.I[j])
		case KindDouble, KindLabeledScalar:
			return a.F[i] == b.F[j]
		case KindString:
			return a.S[i] == b.S[j]
		case KindBool:
			return a.B[i] == b.B[j]
		}
	}
	return keyValuesEqual(a.Value(i), b.Value(j))
}

// keyValuesEqual is key equality: numeric kinds compare by their double value
// (so −0 equals +0, a NaN equals nothing, and INTEGERs past 2⁵³ that round to
// one double are equal), everything else by Equal (so NULL equals NULL).
func keyValuesEqual(v, w Value) bool {
	if v.IsNumeric() && w.IsNumeric() {
		x, _ := v.AsDouble()
		y, _ := w.AsDouble()
		return x == y
	}
	return v.Equal(w)
}
