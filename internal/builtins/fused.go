package builtins

import (
	"fmt"

	"relalg/internal/linalg"
	"relalg/internal/value"
)

// Fused aggregation states. SUM(outer_product(x, y)) and
// SUM(matrix_multiply(a, b)) evaluated naively allocate a full result
// matrix per input row; any serious engine (SimSQL's compiled plans
// included) accumulates into a single buffer instead. These states keep the
// AggState protocol's Merge and Final, so the distributed two-phase
// machinery is untouched, but they are stepped only through StepFused, which
// takes the call's arguments (evaluated columnar with the aggregate's other
// inputs) and skips the intermediate allocation entirely. plan.AggCall.Fused
// decides which calls are fused.

// FusedKind identifies which fused SUM an aggregate call is.
type FusedKind uint8

const (
	FusedNone FusedKind = iota
	FusedOuterSum
	FusedMatMulSum
	FusedGramSum // SUM(matrix_multiply(trans_matrix(c), c)) over one column c
)

// FusedSumState accumulates SUM(outer_product(a, b)),
// SUM(matrix_multiply(a, b)) or the Gram sum SUM(XᵀX) without materializing
// per-row results.
//
// The outer-product sum does not touch acc once per row: after a group's
// first OuterPanelRows rows (absorbed by direct rank-1 updates, so small
// groups never allocate a panel) the argument vectors are copied into row
// panels and each full panel is folded in by one tiled AᵀB multiply. The
// kernel appends products in row order and skips no zero, and a row holding
// a NaN or ±Inf is kept out of the panel and applied in place (see
// stepOuter), so acc holds bit-for-bit what the rank-1 sequence would, on
// every input. While every row so far was finite and passed the same vector
// as both arguments (sym), only the upper triangle is kept current and Seal
// mirrors it down; the Gram sum does the same while its rows are finite (see
// stepGram). Merge and Final see a sealed acc.
type FusedSumState struct {
	kind FusedKind
	acc  *linalg.Matrix

	direct int            // outer-sum rows absorbed before the panels exist
	pa, pb *linalg.Matrix // row panels of the two arguments; pb stays nil while sym
	n      int            // rows buffered in the panels
	sym    bool           // every row so far was finite, with a.Vec == b.Vec for an outer sum
	stale  bool           // acc's lower triangle is behind its upper one
}

// NewFusedSum is an empty fused SUM of the given kind.
func NewFusedSum(kind FusedKind) *FusedSumState { return &FusedSumState{kind: kind} }

// StepFused accumulates one input row's arguments a and b directly into the
// buffer. A Gram sum has one argument, X, and takes it as a and b alike.
func (s *FusedSumState) StepFused(a, b value.Value) error {
	if a.IsNull() || b.IsNull() {
		return nil
	}
	switch s.kind {
	case FusedOuterSum:
		if a.Kind != value.KindVector || b.Kind != value.KindVector {
			return fmt.Errorf("builtins: SUM(outer_product) over %s, %s", a.Kind, b.Kind)
		}
		return s.stepOuter(a.Vec, b.Vec)
	case FusedMatMulSum:
		if a.Kind != value.KindMatrix || b.Kind != value.KindMatrix {
			return fmt.Errorf("builtins: SUM(matrix_multiply) over %s, %s", a.Kind, b.Kind)
		}
		if s.acc == nil {
			s.acc = linalg.NewMatrix(a.Mat.Rows, b.Mat.Cols)
		}
		return a.Mat.MulMatAddInto(s.acc, b.Mat)
	case FusedGramSum:
		if a.Kind != value.KindMatrix {
			return fmt.Errorf("builtins: SUM(matrix_multiply(trans_matrix)) over %s", a.Kind)
		}
		return s.stepGram(a.Mat)
	default:
		return fmt.Errorf("builtins: StepFused on unfused state")
	}
}

// stepGram absorbs one XᵀX term. A finite X goes through the upper-triangle
// kernel, which keeps MulMatAddInto(Xᵀ, X)'s bits: mulMatBlock skips a group
// of zero coefficients, but with finite rows each skipped product is ±0, and
// adding ±0 to an accumulator that started at +0 (so never holds −0) changes
// nothing. A row with a NaN or ±Inf (mulMatBlock skips its 0·Inf, the
// triangle kernel would not) and a row whose shape MulMatAddInto rejects take
// MulMatAddInto itself, and the triangle stays off for good.
func (s *FusedSumState) stepGram(x *linalg.Matrix) error {
	if s.acc == nil {
		s.acc = linalg.NewMatrix(x.Cols, x.Cols)
		s.sym = true
	}
	if s.sym && x.Cols == s.acc.Cols && allFinite(x.Data) {
		_ = x.GramAddUpperInto(s.acc)
		s.stale = true
		return nil
	}
	s.Seal()
	s.sym = false
	return x.Transpose().MulMatAddInto(s.acc, x)
}

// stepOuter absorbs one a·bᵀ term.
func (s *FusedSumState) stepOuter(a, b *linalg.Vector) error {
	if s.acc == nil {
		s.acc = linalg.NewMatrix(a.Len(), b.Len())
		s.sym = true
	}
	// Finite panel rows only ever put one NaN into an add (a product of
	// finite entries is finite or ±Inf), and then the add returns it
	// whichever operand it is. A NaN product meeting a NaN sum has no such
	// guarantee, so a row with a NaN or ±Inf goes the way OuterAddInto
	// defines it; and since its x_i·x_j and x_j·x_i may be two different
	// NaNs, the triangles stop standing in for each other.
	finite := allFinite(a.Data) && (a == b || allFinite(b.Data))
	if s.sym && !(a == b && finite) {
		s.Seal()
		s.sym = false
	}
	k := linalg.OuterPanelRows(s.acc.Rows, s.acc.Cols)
	if s.direct < k || !finite || a.Len() != s.acc.Rows || b.Len() != s.acc.Cols {
		if s.sym && a.Len() == s.acc.Rows {
			// A one-row panel: the triangle kernel appends a_i·a_j to
			// acc just as OuterAddInto does.
			row := linalg.Matrix{Rows: 1, Cols: a.Len(), Data: a.Data}
			_ = row.GramAddUpperInto(s.acc)
			s.stale = true
			s.direct++
			return nil
		}
		// Also the path of a row whose shape OuterAddInto rejects.
		s.Seal()
		if err := a.OuterAddInto(s.acc, b); err != nil {
			return err
		}
		s.direct++
		return nil
	}
	if s.pa == nil {
		s.pa = linalg.NewMatrix(k, a.Len())
	}
	copy(s.pa.Row(s.n), a.Data)
	if !s.sym {
		if s.pb == nil {
			s.pb = linalg.NewMatrix(k, b.Len())
		}
		copy(s.pb.Row(s.n), b.Data)
	}
	s.n++
	if s.n == k {
		s.flush()
	}
	return nil
}

// allFinite reports whether xs holds no NaN and no ±Inf: x·0 is NaN exactly
// for those, and one NaN term makes the sum NaN.
func allFinite(xs []float64) bool {
	var t float64
	for _, x := range xs {
		t += x * 0
	}
	return t == 0
}

// flush folds the buffered panel rows into acc.
func (s *FusedSumState) flush() {
	if s.n == 0 {
		return
	}
	pa := linalg.Matrix{Rows: s.n, Cols: s.pa.Cols, Data: s.pa.Data[:s.n*s.pa.Cols]}
	// The panels were built to acc's shape row by row, so neither kernel
	// call can fail its shape check.
	if s.sym {
		_ = pa.GramAddUpperInto(s.acc)
		s.stale = true
	} else {
		pb := linalg.Matrix{Rows: s.n, Cols: s.pb.Cols, Data: s.pb.Data[:s.n*s.pb.Cols]}
		_ = pa.TransMulAddInto(s.acc, &pb)
	}
	s.n = 0
}

// Seal brings acc up to date with every row absorbed so far: it flushes the
// panel and completes the lower triangle. Sealing a sealed state writes
// nothing, which is what lets every finalize attempt call Final on states
// the executor sealed when their partition finished.
func (s *FusedSumState) Seal() {
	s.flush()
	if s.stale {
		s.acc.MirrorUpper()
		s.stale = false
	}
}

// Step implements AggState. A fused state takes its rows through StepFused
// only.
func (s *FusedSumState) Step(value.Value) error {
	return fmt.Errorf("builtins: fused SUM stepped by value")
}

// Merge implements AggState.
func (s *FusedSumState) Merge(other AggState) error {
	o, ok := other.(*FusedSumState)
	if !ok {
		return fmt.Errorf("builtins: merging fused SUM with %T", other)
	}
	if o.acc == nil {
		return nil
	}
	o.Seal()
	if s.acc == nil {
		s.acc = o.acc
		s.sym = o.sym
		return nil
	}
	s.Seal()
	s.sym = s.sym && o.sym
	return s.acc.AddInPlace(o.acc)
}

// Final implements AggState.
func (s *FusedSumState) Final() (value.Value, error) {
	if s.acc == nil {
		return value.Null(), nil // SQL: SUM of no rows is NULL
	}
	s.Seal()
	return value.Matrix(s.acc), nil
}
