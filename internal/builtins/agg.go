package builtins

import (
	"fmt"
	"math"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

// AggState is the running state of one aggregate over one group. States are
// mergeable so the executor can pre-aggregate per partition before the
// shuffle and combine partial states afterwards — the property that makes
// SUM over MATRIX blocks efficient in distributed plans.
type AggState interface {
	Step(v value.Value) error
	Merge(other AggState) error
	Final() (value.Value, error)
}

// AggSpec describes one aggregate function.
type AggSpec struct {
	Name string
	// ResultType infers the output type from the input expression type.
	ResultType func(in types.T) (types.T, error)
	// New creates a fresh state for one group.
	New func() AggState
}

// The aggregates the planner and executor treat specially, matched by these
// pointers, never by name: COUNT(*), SUM's fused forms, and the per-group
// arrays of COUNT, SUM, AVG, MIN and MAX over numbers.
var Sum, Count, Avg, Min, Max *AggSpec

var aggRegistry = map[string]*AggSpec{}

// LookupAgg finds an aggregate by (lower-case) name.
func LookupAgg(name string) (*AggSpec, bool) {
	a, ok := aggRegistry[name]
	return a, ok
}

// IsAggregate reports whether name refers to an aggregate function.
func IsAggregate(name string) bool {
	_, ok := aggRegistry[name]
	return ok
}

// mustRegisterAgg records a and returns it. The aggregate table is fixed at
// compile time, so a duplicate name is a programming error.
func mustRegisterAgg(a *AggSpec) *AggSpec {
	if _, dup := aggRegistry[a.Name]; dup {
		panic(fmt.Errorf("builtins: duplicate aggregate %s", a.Name))
	}
	aggRegistry[a.Name] = a
	return a
}

// --- SUM --------------------------------------------------------------

// NumSum is SUM's and AVG's running state over numbers: the sum as an INTEGER
// until the first DOUBLE turns it into a DOUBLE, and the count of non-null
// inputs. It holds no pointers, so the executor keeps one per group in a flat
// array and steps it without boxing a lane or calling through an interface;
// sumState embeds it, so both paths are one arithmetic.
type NumSum struct {
	kind  value.Kind // KindNull until the first non-null input
	sum   uint64     // the int64 sum while kind is KindInt, the float64's bits once KindDouble
	count int64
}

func (s *NumSum) i() int64   { return int64(s.sum) }
func (s *NumSum) d() float64 { return math.Float64frombits(s.sum) }

// Step adds one scalar input; NULL is skipped.
func (s *NumSum) Step(v value.Value) error {
	switch v.Kind {
	case value.KindNull:
		return nil
	case value.KindInt:
		return s.StepInt(v.I)
	case value.KindDouble, value.KindLabeledScalar:
		return s.StepDouble(v.D)
	}
	return fmt.Errorf("builtins: SUM over %s", v.Kind)
}

// StepDouble is Step(value.Double(x)) without boxing x.
func (s *NumSum) StepDouble(x float64) error {
	s.count++
	d := s.d() // +0 while kind is KindNull
	switch s.kind {
	case value.KindNull:
		s.kind = value.KindDouble
	case value.KindInt:
		s.kind = value.KindDouble
		d = float64(s.i())
	case value.KindDouble:
	default:
		return fmt.Errorf("builtins: SUM over mixed %s and DOUBLE", s.kind)
	}
	s.sum = math.Float64bits(d + x)
	return nil
}

// StepInt is Step(value.Int(x)) without boxing x.
func (s *NumSum) StepInt(x int64) error {
	s.count++
	switch s.kind {
	case value.KindNull:
		s.kind = value.KindInt
		s.sum = uint64(x)
	case value.KindInt:
		s.sum = uint64(s.i() + x)
	case value.KindDouble:
		s.sum = math.Float64bits(s.d() + float64(x))
	default:
		return fmt.Errorf("builtins: SUM over mixed %s and INTEGER", s.kind)
	}
	return nil
}

// Merge folds o into s as sumState.Merge does: o's sum is stepped in as one
// input, and the counts add.
func (s *NumSum) Merge(o *NumSum) error {
	saved := s.count
	var err error
	switch o.kind {
	case value.KindNull:
		return nil
	case value.KindInt:
		err = s.StepInt(o.i())
	default:
		err = s.StepDouble(o.d())
	}
	s.count = saved + o.count
	return err
}

// Sum is SUM's result: NULL over no rows.
func (s *NumSum) Sum() (value.Value, error) {
	switch s.kind {
	case value.KindNull:
		return value.Null(), nil // SQL: SUM of no rows is NULL
	case value.KindInt:
		return value.Int(s.i()), nil
	case value.KindDouble:
		return value.Double(s.d()), nil
	}
	return value.Null(), fmt.Errorf("builtins: corrupt SUM state")
}

// Avg is AVG's result, a DOUBLE: NULL over no rows.
func (s *NumSum) Avg() (value.Value, error) {
	if s.count == 0 {
		return value.Null(), nil
	}
	n := float64(s.count)
	switch s.kind {
	case value.KindInt:
		return value.Double(float64(s.i()) / n), nil
	case value.KindDouble:
		return value.Double(s.d() / n), nil
	}
	return value.Null(), fmt.Errorf("builtins: AVG over %s", s.kind)
}

// sumState accumulates numerics in its NumSum and vectors/matrices
// element-wise, matching the paper's "SUM aggregate over MATRIX performs a +
// over each MATRIX in a relation".
type sumState struct {
	NumSum
	vec *linalg.Vector
	mat *linalg.Matrix
}

func (s *sumState) Step(v value.Value) error {
	switch v.Kind {
	case value.KindVector:
		s.count++
		if s.kind == value.KindNull {
			s.kind = value.KindVector
			s.vec = v.Vec.Clone()
			return nil
		}
		if s.kind != value.KindVector {
			return fmt.Errorf("builtins: SUM over mixed %s and VECTOR", s.kind)
		}
		return s.vec.AddInPlace(v.Vec)
	case value.KindMatrix:
		s.count++
		if s.kind == value.KindNull {
			s.kind = value.KindMatrix
			s.mat = v.Mat.Clone()
			return nil
		}
		if s.kind != value.KindMatrix {
			return fmt.Errorf("builtins: SUM over mixed %s and MATRIX", s.kind)
		}
		return s.mat.AddInPlace(v.Mat)
	}
	return s.NumSum.Step(v)
}

func (s *sumState) Merge(other AggState) error {
	o := other.(*sumState)
	if o.kind == value.KindNull {
		return nil
	}
	partial, err := o.Final()
	if err != nil {
		return err
	}
	saved := s.count
	if err := s.Step(partial); err != nil {
		return err
	}
	s.count = saved + o.count
	return nil
}

func (s *sumState) Final() (value.Value, error) {
	switch s.kind {
	case value.KindVector:
		return value.Vector(s.vec), nil
	case value.KindMatrix:
		return value.Matrix(s.mat), nil
	}
	return s.Sum()
}

// --- COUNT ------------------------------------------------------------

type countState struct{ n int64 }

func (s *countState) Step(v value.Value) error {
	if !v.IsNull() {
		s.n++
	}
	return nil
}
func (s *countState) Merge(other AggState) error  { s.n += other.(*countState).n; return nil }
func (s *countState) Final() (value.Value, error) { return value.Int(s.n), nil }

// --- AVG --------------------------------------------------------------

type avgState struct {
	sum sumState
}

func (s *avgState) Step(v value.Value) error   { return s.sum.Step(v) }
func (s *avgState) StepDouble(x float64) error { return s.sum.StepDouble(x) }
func (s *avgState) StepInt(x int64) error      { return s.sum.StepInt(x) }
func (s *avgState) Merge(other AggState) error {
	return s.sum.Merge(&other.(*avgState).sum)
}
func (s *avgState) Final() (value.Value, error) {
	if s.sum.count == 0 {
		return value.Null(), nil
	}
	n := float64(s.sum.count)
	switch s.sum.kind {
	case value.KindVector:
		return value.Vector(s.sum.vec.ScaleDiv(n)), nil
	case value.KindMatrix:
		return value.Matrix(s.sum.mat.ScaleDiv(n)), nil
	}
	return s.sum.Avg()
}

// --- MIN / MAX ----------------------------------------------------------

// extremeState keeps the extreme scalar seen, or — for VECTOR inputs — the
// element-wise extreme, which is what the paper's block-based distance
// computation needs to fold per-row minima across blocks.
type extremeState struct {
	want int // -1 for MIN, +1 for MAX
	best value.Value
	seen bool
}

func (s *extremeState) Step(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !s.seen {
		if v.Kind == value.KindVector {
			v = value.Vector(v.Vec.Clone())
		}
		s.best, s.seen = v, true
		return nil
	}
	if v.Kind == value.KindVector || s.best.Kind == value.KindVector {
		if v.Kind != s.best.Kind {
			return fmt.Errorf("builtins: MIN/MAX over mixed %s and %s", s.best.Kind, v.Kind)
		}
		var (
			merged *linalg.Vector
			err    error
		)
		if s.want < 0 {
			merged, err = s.best.Vec.MinPairwise(v.Vec)
		} else {
			merged, err = s.best.Vec.MaxPairwise(v.Vec)
		}
		if err != nil {
			return err
		}
		s.best = value.Vector(merged)
		return nil
	}
	c, err := v.Compare(s.best)
	if err != nil {
		return fmt.Errorf("builtins: MIN/MAX: %v", err)
	}
	if c == s.want {
		s.best = v
	}
	return nil
}

func (s *extremeState) Merge(other AggState) error {
	o := other.(*extremeState)
	if !o.seen {
		return nil
	}
	return s.Step(o.best)
}

func (s *extremeState) Final() (value.Value, error) {
	if !s.seen {
		return value.Null(), nil
	}
	return s.best, nil
}

// NumExtreme is MIN's or MAX's running state over INTEGER and DOUBLE inputs:
// the best value and its kind, KindNull until the first non-null input. It
// holds no pointers, so the executor keeps one per group in a flat array and
// steps it without boxing a lane, as it does NumSum. It steps as
// extremeState's scalar branch does: both sides compare as doubles, and a
// value replaces the best only when strictly less (MIN) or greater (MAX), so a
// tie (−0 and +0, 2⁵³ and 2⁵³+1) or a NaN keeps the first value seen, with its
// kind.
type NumExtreme struct {
	Max  bool       // MAX, else MIN
	kind value.Kind // KindNull until the first non-null input
	best uint64     // the int64 while kind is KindInt, the float64's bits once KindDouble
}

// Step adds one input; NULL is skipped.
func (s *NumExtreme) Step(v value.Value) error {
	switch v.Kind {
	case value.KindNull:
	case value.KindInt:
		s.StepInt(v.I)
	case value.KindDouble:
		s.StepDouble(v.D)
	default:
		return fmt.Errorf("builtins: numeric MIN/MAX over %s", v.Kind)
	}
	return nil
}

// StepDouble is Step(value.Double(x)) without boxing x.
func (s *NumExtreme) StepDouble(x float64) {
	if s.kind == value.KindNull || s.beats(x) {
		s.kind, s.best = value.KindDouble, math.Float64bits(x)
	}
}

// StepInt is Step(value.Int(x)) without boxing x.
func (s *NumExtreme) StepInt(x int64) {
	if s.kind == value.KindNull || s.beats(float64(x)) {
		s.kind, s.best = value.KindInt, uint64(x)
	}
}

// beats reports whether x is strictly better than the best, as doubles.
func (s *NumExtreme) beats(x float64) bool {
	best := math.Float64frombits(s.best)
	if s.kind == value.KindInt {
		best = float64(int64(s.best))
	}
	if s.Max {
		return x > best
	}
	return x < best
}

// Merge folds o into s as extremeState.Merge does: o's best is stepped in.
func (s *NumExtreme) Merge(o *NumExtreme) {
	switch o.kind {
	case value.KindInt:
		s.StepInt(int64(o.best))
	case value.KindDouble:
		s.StepDouble(math.Float64frombits(o.best))
	}
}

// Final is MIN's or MAX's result: NULL over no rows.
func (s *NumExtreme) Final() value.Value {
	switch s.kind {
	case value.KindInt:
		return value.Int(int64(s.best))
	case value.KindDouble:
		return value.Double(math.Float64frombits(s.best))
	}
	return value.Null()
}

// --- VECTORIZE ----------------------------------------------------------

// vectorizeState aggregates LABELED_SCALAR values into a vector, placing
// each at the position given by its label; holes are zero and the result has
// max(label)+1 entries (§3.3).
type vectorizeState struct {
	entries  map[int64]float64
	maxLabel int64
}

func newVectorize() AggState {
	return &vectorizeState{entries: map[int64]float64{}, maxLabel: -1}
}

func (s *vectorizeState) Step(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind != value.KindLabeledScalar {
		return fmt.Errorf("builtins: VECTORIZE over %s, want LABELED_SCALAR", v.Kind)
	}
	if v.Label < 0 {
		return fmt.Errorf("builtins: VECTORIZE with negative label %d", v.Label)
	}
	s.entries[v.Label] += v.D
	if v.Label > s.maxLabel {
		s.maxLabel = v.Label
	}
	return nil
}

func (s *vectorizeState) Merge(other AggState) error {
	o := other.(*vectorizeState)
	for l, d := range o.entries {
		s.entries[l] += d
	}
	if o.maxLabel > s.maxLabel {
		s.maxLabel = o.maxLabel
	}
	return nil
}

func (s *vectorizeState) Final() (value.Value, error) {
	v := linalg.NewVector(int(s.maxLabel + 1))
	for l, d := range s.entries {
		v.Data[l] = d
	}
	return value.Vector(v), nil
}

// --- ROWMATRIX / COLMATRIX ----------------------------------------------

// matrixizeState aggregates labeled VECTOR values into a matrix, placing
// each vector at the row (ROWMATRIX) or column (COLMATRIX) given by its
// label. All input vectors must share a length; holes are zero.
type matrixizeState struct {
	byCol    bool
	rows     map[int64]*linalg.Vector
	maxLabel int64
	width    int
}

func newMatrixize(byCol bool) AggState {
	return &matrixizeState{byCol: byCol, rows: map[int64]*linalg.Vector{}, maxLabel: -1, width: -1}
}

func (s *matrixizeState) name() string {
	if s.byCol {
		return "COLMATRIX"
	}
	return "ROWMATRIX"
}

func (s *matrixizeState) Step(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind != value.KindVector {
		return fmt.Errorf("builtins: %s over %s, want VECTOR", s.name(), v.Kind)
	}
	if v.Label < 0 {
		return fmt.Errorf("builtins: %s with negative label %d (use label_vector)", s.name(), v.Label)
	}
	if s.width == -1 {
		s.width = v.Vec.Len()
	} else if s.width != v.Vec.Len() {
		return fmt.Errorf("builtins: %s over vectors of length %d and %d", s.name(), s.width, v.Vec.Len())
	}
	if prev, ok := s.rows[v.Label]; ok {
		if err := prev.AddInPlace(v.Vec); err != nil {
			return err
		}
	} else {
		s.rows[v.Label] = v.Vec.Clone()
	}
	if v.Label > s.maxLabel {
		s.maxLabel = v.Label
	}
	return nil
}

func (s *matrixizeState) Merge(other AggState) error {
	o := other.(*matrixizeState)
	for l, vec := range o.rows {
		if err := s.Step(value.LabeledVector(vec, l)); err != nil {
			return err
		}
	}
	return nil
}

func (s *matrixizeState) Final() (value.Value, error) {
	n := int(s.maxLabel + 1)
	w := s.width
	if w < 0 {
		w = 0
	}
	if s.byCol {
		m := linalg.NewMatrix(w, n)
		for l, vec := range s.rows {
			for i, x := range vec.Data {
				m.Set(i, int(l), x)
			}
		}
		return value.Matrix(m), nil
	}
	m := linalg.NewMatrix(n, w)
	for l, vec := range s.rows {
		copy(m.Row(int(l)), vec.Data)
	}
	return value.Matrix(m), nil
}

func init() {
	Sum = mustRegisterAgg(&AggSpec{
		Name: "sum",
		ResultType: func(in types.T) (types.T, error) {
			switch {
			case in.Base == types.Int:
				return types.TInt, nil
			case in.IsNumericScalar():
				return types.TDouble, nil
			case in.IsLinAlg():
				return in, nil
			}
			return types.T{}, fmt.Errorf("%w: SUM over %s", types.ErrTypeMismatch, in)
		},
		New: func() AggState { return &sumState{} },
	})
	Count = mustRegisterAgg(&AggSpec{
		Name:       "count",
		ResultType: func(types.T) (types.T, error) { return types.TInt, nil },
		New:        func() AggState { return &countState{} },
	})
	Avg = mustRegisterAgg(&AggSpec{
		Name: "avg",
		ResultType: func(in types.T) (types.T, error) {
			switch {
			case in.IsNumericScalar():
				return types.TDouble, nil
			case in.IsLinAlg():
				return in, nil
			}
			return types.T{}, fmt.Errorf("%w: AVG over %s", types.ErrTypeMismatch, in)
		},
		New: func() AggState { return &avgState{} },
	})
	minMaxType := func(in types.T) (types.T, error) {
		switch {
		case in.Base == types.Int:
			return types.TInt, nil
		case in.IsNumericScalar():
			return types.TDouble, nil
		case in.Base == types.String, in.Base == types.Bool:
			return in, nil
		case in.Base == types.Vector:
			return in, nil // element-wise extreme
		}
		return types.T{}, fmt.Errorf("%w: MIN/MAX over %s", types.ErrTypeMismatch, in)
	}
	Min = mustRegisterAgg(&AggSpec{
		Name:       "min",
		ResultType: minMaxType,
		New:        func() AggState { return &extremeState{want: -1} },
	})
	Max = mustRegisterAgg(&AggSpec{
		Name:       "max",
		ResultType: minMaxType,
		New:        func() AggState { return &extremeState{want: 1} },
	})
	mustRegisterAgg(&AggSpec{
		Name: "vectorize",
		ResultType: func(in types.T) (types.T, error) {
			if in.Base != types.LabeledScalar {
				return types.T{}, fmt.Errorf("%w: VECTORIZE over %s, want LABELED_SCALAR", types.ErrTypeMismatch, in)
			}
			return types.TVector(types.UnknownDim), nil
		},
		New: newVectorize,
	})
	mustRegisterAgg(&AggSpec{
		Name: "rowmatrix",
		ResultType: func(in types.T) (types.T, error) {
			if in.Base != types.Vector {
				return types.T{}, fmt.Errorf("%w: ROWMATRIX over %s, want VECTOR", types.ErrTypeMismatch, in)
			}
			return types.TMatrix(types.UnknownDim, in.Dims[0]), nil
		},
		New: func() AggState { return newMatrixize(false) },
	})
	mustRegisterAgg(&AggSpec{
		Name: "colmatrix",
		ResultType: func(in types.T) (types.T, error) {
			if in.Base != types.Vector {
				return types.T{}, fmt.Errorf("%w: COLMATRIX over %s, want VECTOR", types.ErrTypeMismatch, in)
			}
			return types.TMatrix(in.Dims[0], types.UnknownDim), nil
		},
		New: func() AggState { return newMatrixize(true) },
	})
}
