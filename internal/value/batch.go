package value

import (
	"slices"

	"relalg/internal/linalg"
)

// This file defines the column the executor's windows are made of: one
// column of a window of rows stored as a typed array, with the live lanes
// named by a separate selection vector. A column is "typed" when every
// value in the window has the same kind — the common case for relational data
// — and falls back to a generic []Value otherwise (mixed kinds or NULLs), so
// vectorized fast paths never have to reason about per-lane kind dispatch:
// they either run over a homogeneous array or the evaluator (plan.EvalVec)
// goes lane by lane through the scalar builtins, which define each lane's
// semantics.

// Col is one column of a window: either a homogeneous typed array (Generic
// false; Kind names the storage) or a generic value array (Generic true).
// The typed arrays alias the vectors/matrices of the rows they were gathered
// from — like Row.Clone, a gathered column shares cell backing storage, so a
// column that crosses a partition or goroutine boundary must have its lanes
// deep-copied (Value.DeepClone) or go through the row codec, just as rows
// must.
type Col struct {
	Kind    Kind
	Generic bool

	B     []bool
	I     []int64
	F     []float64 // KindDouble and the scalar of KindLabeledScalar
	S     []string
	Vec   []*linalg.Vector
	Mat   []*linalg.Matrix
	Label []int64 // labels for KindLabeledScalar and KindVector

	Any []Value // Generic storage
}

// Len returns the number of lanes in the column.
func (c *Col) Len() int {
	if c.Generic {
		return len(c.Any)
	}
	switch c.Kind {
	case KindBool:
		return len(c.B)
	case KindInt:
		return len(c.I)
	case KindDouble, KindLabeledScalar:
		return len(c.F)
	case KindString:
		return len(c.S)
	case KindVector:
		return len(c.Vec)
	case KindMatrix:
		return len(c.Mat)
	}
	return 0
}

// Reset clears the column for reuse, keeping backing arrays.
func (c *Col) Reset() {
	c.Kind = KindNull
	c.Generic = false
	c.B = c.B[:0]
	c.I = c.I[:0]
	c.F = c.F[:0]
	c.S = c.S[:0]
	c.Vec = c.Vec[:0]
	c.Mat = c.Mat[:0]
	c.Label = c.Label[:0]
	c.Any = c.Any[:0]
}

// appendValue appends v as the next lane, starting optimistically typed from
// the first value's kind and degrading to generic storage on a mismatch or
// NULL. The column must be Reset before the first append.
func (c *Col) appendValue(v Value) {
	if c.Generic {
		c.Any = append(c.Any, v)
		return
	}
	if c.Kind == KindNull { // first lane
		if v.Kind == KindNull {
			c.Generic = true
			c.Any = append(c.Any, v)
			return
		}
		c.Kind = v.Kind
	}
	if v.Kind != c.Kind {
		c.degrade()
		c.Any = append(c.Any, v)
		return
	}
	switch c.Kind {
	case KindBool:
		c.B = append(c.B, v.B)
	case KindInt:
		c.I = append(c.I, v.I)
	case KindDouble:
		c.F = append(c.F, v.D)
	case KindLabeledScalar:
		c.F = append(c.F, v.D)
		c.Label = append(c.Label, v.Label)
	case KindString:
		c.S = append(c.S, v.S)
	case KindVector:
		c.Vec = append(c.Vec, v.Vec)
		c.Label = append(c.Label, v.Label)
	case KindMatrix:
		c.Mat = append(c.Mat, v.Mat)
	}
}

// GatherMulti fills cols[j] from column idxs[j] of rows[lo:hi] in a single
// pass over the rows, visiting each row's backing array once. It is the only
// code that turns rows into columns. A column is typed as its first lane and
// degrades to generic storage when a lane's kind differs or a lane is NULL.
func GatherMulti(rows []Row, lo, hi int, idxs []int, cols []*Col) {
	for j, c := range cols {
		c.Reset()
		if hi > lo {
			// Typed as the first lane; a column that degrades to generic
			// storage wastes the room.
			c.reserve(rows[lo][idxs[j]].Kind, hi-lo)
		}
	}
	for i := lo; i < hi; i++ {
		r := rows[i]
		for j, idx := range idxs {
			c := cols[j]
			v := &r[idx]
			// Inline the hot kinds; everything else (first lane, kind
			// change, the other kinds) takes the general append.
			if !c.Generic && v.Kind == c.Kind {
				switch v.Kind {
				case KindDouble:
					c.F = append(c.F, v.D)
					continue
				case KindInt:
					c.I = append(c.I, v.I)
					continue
				case KindVector:
					c.Vec = append(c.Vec, v.Vec)
					c.Label = append(c.Label, v.Label)
					continue
				}
			}
			c.appendValue(*v)
		}
	}
}

// AppendLane appends lane i of src as the column's next lane. As in
// GatherMulti, the column stays typed while every lane shares one non-NULL
// kind and degrades to generic storage when one does not.
func (c *Col) AppendLane(src *Col, i int) {
	if !src.Generic && !c.Generic && src.Kind == c.Kind {
		switch c.Kind {
		case KindInt:
			c.I = append(c.I, src.I[i])
			return
		case KindDouble:
			c.F = append(c.F, src.F[i])
			return
		case KindString:
			c.S = append(c.S, src.S[i])
			return
		}
	}
	c.appendValue(src.Value(i))
}

// Grow makes room for n more lanes of the column's current storage.
func (c *Col) Grow(n int) {
	if c.Generic {
		c.Any = slices.Grow(c.Any, n)
		return
	}
	c.reserve(c.Kind, n)
}

// Fill makes the column n lanes of the constant v.
func (c *Col) Fill(v Value, n int) {
	c.Reset()
	c.reserve(v.Kind, n)
	for i := 0; i < n; i++ {
		c.appendValue(v)
	}
}

// reserve makes room for n more lanes of kind, so that appending them does not
// reallocate.
func (c *Col) reserve(kind Kind, n int) {
	switch kind {
	case KindBool:
		c.B = slices.Grow(c.B, n)
	case KindInt:
		c.I = slices.Grow(c.I, n)
	case KindDouble:
		c.F = slices.Grow(c.F, n)
	case KindLabeledScalar:
		c.F = slices.Grow(c.F, n)
		c.Label = slices.Grow(c.Label, n)
	case KindString:
		c.S = slices.Grow(c.S, n)
	case KindVector:
		c.Vec = slices.Grow(c.Vec, n)
		c.Label = slices.Grow(c.Label, n)
	case KindMatrix:
		c.Mat = slices.Grow(c.Mat, n)
	case KindNull: // a NULL-led column is generic
		c.Any = slices.Grow(c.Any, n)
	}
}

// Value reconstructs lane i as a Value. Like reading a cell from a Row, the
// result shares vector/matrix backing storage with the column.
func (c *Col) Value(i int) Value {
	if c.Generic {
		return c.Any[i]
	}
	switch c.Kind {
	case KindBool:
		return Value{Kind: KindBool, B: c.B[i]}
	case KindInt:
		return Value{Kind: KindInt, I: c.I[i]}
	case KindDouble:
		return Value{Kind: KindDouble, D: c.F[i]}
	case KindLabeledScalar:
		return Value{Kind: KindLabeledScalar, D: c.F[i], Label: c.Label[i]}
	case KindString:
		return Value{Kind: KindString, S: c.S[i]}
	case KindVector:
		return Value{Kind: KindVector, Vec: c.Vec[i], Label: c.Label[i]}
	case KindMatrix:
		return Value{Kind: KindMatrix, Mat: c.Mat[i]}
	}
	return Value{}
}

// IsNumeric reports whether the column's typed storage is numeric scalar.
func (c *Col) IsNumeric() bool {
	if c.Generic {
		return false
	}
	switch c.Kind {
	case KindInt, KindDouble, KindLabeledScalar:
		return true
	}
	return false
}

// AsFloats returns the lanes as float64s, using scratch as backing when a
// conversion is needed (KindInt), and whether the conversion was possible.
// Only the lanes named by sel (all of [0,n) when sel is nil) are converted.
func (c *Col) AsFloats(scratch []float64, sel []int32) ([]float64, bool) {
	if c.Generic {
		return nil, false
	}
	switch c.Kind {
	case KindDouble, KindLabeledScalar:
		return c.F, true
	case KindInt:
		n := len(c.I)
		if cap(scratch) < n {
			scratch = make([]float64, n)
		}
		scratch = scratch[:n]
		if sel == nil {
			for i, x := range c.I {
				scratch[i] = float64(x)
			}
		} else {
			for _, i := range sel {
				scratch[i] = float64(c.I[i])
			}
		}
		return scratch, true
	}
	return nil, false
}

// SizeBytesAt replicates Value.SizeBytes for lane i without materializing the
// value (the spill governor's per-row footprint is defined on Value.SizeBytes,
// so budget denials trip at the same row however the row is held).
func (c *Col) SizeBytesAt(i int) int {
	if c.Generic {
		return c.Any[i].SizeBytes()
	}
	switch c.Kind {
	case KindBool:
		return 1
	case KindInt, KindDouble:
		return 8
	case KindLabeledScalar:
		return 16
	case KindString:
		return len(c.S[i]) + 4
	case KindVector:
		return 8*c.Vec[i].Len() + 12
	case KindMatrix:
		return 8*c.Mat[i].Rows*c.Mat[i].Cols + 8
	}
	return 1 // NULL
}

// degrade converts typed storage to generic in place.
func (c *Col) degrade() {
	n := c.Len()
	any := make([]Value, n)
	for i := 0; i < n; i++ {
		any[i] = c.Value(i)
	}
	c.Reset()
	c.Generic = true
	c.Any = any
}

// Specialize converts a generic column to typed storage when every lane in
// sel (all lanes when nil) has the same non-NULL kind; other lanes are
// ignored, so a fallback evaluator that only wrote selected lanes still
// specializes. No-op for already-typed columns.
func (c *Col) Specialize(n int, sel []int32) {
	if !c.Generic || len(c.Any) == 0 {
		return
	}
	kind := KindNull
	probe := func(i int) bool {
		v := c.Any[i]
		if kind == KindNull {
			kind = v.Kind
		}
		return v.Kind == kind && v.Kind != KindNull
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if !probe(i) {
				return
			}
		}
	} else {
		for _, i := range sel {
			if !probe(int(i)) {
				return
			}
		}
	}
	if kind == KindNull {
		return // empty selection: nothing to learn
	}
	any := c.Any
	c.Reset()
	c.Kind = kind
	for i := 0; i < len(any); i++ {
		// Unselected lanes may hold mismatched values; their typed slots are
		// dead by contract, so storing their zero fields is fine.
		v := any[i]
		switch kind {
		case KindBool:
			c.B = append(c.B, v.B)
		case KindInt:
			c.I = append(c.I, v.I)
		case KindDouble:
			c.F = append(c.F, v.D)
		case KindLabeledScalar:
			c.F = append(c.F, v.D)
			c.Label = append(c.Label, v.Label)
		case KindString:
			c.S = append(c.S, v.S)
		case KindVector:
			c.Vec = append(c.Vec, v.Vec)
			c.Label = append(c.Label, v.Label)
		case KindMatrix:
			c.Mat = append(c.Mat, v.Mat)
		}
	}
}

// HashesInto writes the hash of each selected lane into dst, which must have
// at least Len lanes. A lane hashes through Value.Hash's per-kind helpers, so
// it equals the hash of the Value it holds: join build and probe, grace
// scatter, aggregate grouping and the join's exchange all hash keys here, and
// table placement hashes the same keys through HashRowKey.
func (c *Col) HashesInto(dst []uint64, sel []int32) {
	lane := func(i int) uint64 {
		if c.Generic {
			return c.Any[i].Hash()
		}
		switch c.Kind {
		case KindBool:
			return hashBool(c.B[i])
		case KindInt:
			return hashDouble(float64(c.I[i]))
		case KindDouble, KindLabeledScalar:
			return hashDouble(c.F[i])
		case KindString:
			return hashString(c.S[i])
		case KindVector:
			return hashVector(c.Vec[i])
		case KindMatrix:
			return hashMatrix(c.Mat[i])
		}
		return fnvOffset64
	}
	if sel == nil {
		for i := 0; i < c.Len(); i++ {
			dst[i] = lane(i)
		}
	} else {
		for _, i := range sel {
			dst[i] = lane(int(i))
		}
	}
}

// CombineKeyHashes folds one key column's per-value hashes into the running
// key-tuple hashes with HashRowKey's fold step. Initialize dst lanes with
// KeyHashInit first.
func CombineKeyHashes(dst, colHashes []uint64, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = foldKeyHash(dst[i], colHashes[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = foldKeyHash(dst[i], colHashes[i])
		}
	}
}
