package plan

import (
	"fmt"
	"math"
	"testing"

	"relalg/internal/types"
	"relalg/internal/value"
)

// rowsSource is a window over rows, gathering each column on request.
type rowsSource []value.Row

func (s rowsSource) BatchLen() int { return len(s) }

func (s rowsSource) BatchCol(idx int) (*value.Col, error) {
	if idx >= len(s[0]) {
		return nil, fmt.Errorf("column %d out of range", idx)
	}
	c := &value.Col{}
	value.GatherMulti(s, 0, len(s), []int{idx}, []*value.Col{c})
	return c, nil
}

// sameBits reports whether a and b are the same value bit for bit: the same
// kind, and doubles (in scalars, vectors and matrices) with the same bits, a
// NaN's sign and payload included.
func sameBits(a, b value.Value) bool {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.Kind != b.Kind || a.Label != b.Label {
		return false
	}
	switch a.Kind {
	case value.KindNull:
		return true
	case value.KindDouble, value.KindLabeledScalar:
		return math.Float64bits(a.D) == math.Float64bits(b.D)
	case value.KindVector:
		return floats(a.Vec.Data, b.Vec.Data)
	case value.KindMatrix:
		return a.Mat.Rows == b.Mat.Rows && a.Mat.Cols == b.Mat.Cols && floats(a.Mat.Data, b.Mat.Data)
	}
	return a.Equal(b)
}

// TestArithBitsIndependentOfWindow pins that a lane's arithmetic result does
// not depend on its neighbours: the same two operands, at least one a NaN,
// give the same bits in an all-DOUBLE window (the typed loop, dense and under
// a selection) and beside a NULL or an INTEGER lane (a generic column, so the
// per-lane scalar path).
func TestArithBitsIndependentOfWindow(t *testing.T) {
	pos := math.Float64frombits(0x7ff8000000000001)
	neg := math.Float64frombits(0xfff8000000000002)
	operands := []float64{pos, neg, 1.5, math.Inf(-1)}
	for _, op := range []string{"+", "-", "*", "/"} {
		e := &Binary{Op: op, Kind: BinArith, L: &Col{Idx: 0, T: types.TDouble}, R: &Col{Idx: 1, T: types.TDouble}, T: types.TDouble}
		for _, l := range operands {
			for _, r := range operands {
				if !math.IsNaN(l) && !math.IsNaN(r) {
					continue
				}
				lane := value.Row{value.Double(l), value.Double(r)}
				var bits []string
				for k, nb := range []value.Value{value.Double(2), value.Double(2), value.Null(), value.Int(2)} {
					var sel []int32
					if k == 1 {
						sel = []int32{0}
					}
					c, err := EvalVec(e, rowsSource{lane, {nb, value.Double(3)}}, sel)
					if err != nil {
						t.Fatal(err)
					}
					bits = append(bits, fmt.Sprintf("%016x", math.Float64bits(c.Value(0).D)))
				}
				if bits[1] != bits[0] || bits[2] != bits[0] || bits[3] != bits[0] {
					t.Errorf("%016x %s %016x: DOUBLE window, selected, NULL and INTEGER neighbour give %v",
						math.Float64bits(l), op, math.Float64bits(r), bits)
				}
			}
		}
	}
}
