package plan

import (
	"math"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

// fuzzCells are the values a FuzzEvalVec window draws from: NaNs of both
// signs with payloads, ±Inf, −0, NULL, and every scalar kind beside them, so
// a column is typed or generic depending on its neighbours. Its vectors have
// two, three and five entries, so a window's inner_product lanes may share a
// length or not.
var fuzzCells = []value.Value{
	value.Null(),
	value.Double(math.Float64frombits(0x7ff8000000000001)),
	value.Double(math.Float64frombits(0xfff8000000000002)),
	value.Double(math.Inf(1)),
	value.Double(math.Inf(-1)),
	value.Double(math.Copysign(0, -1)),
	value.Double(0),
	value.Double(1.5),
	value.Double(-3),
	value.Double(1e308),
	value.Int(0),
	value.Int(1),
	value.Int(-7),
	value.Int(math.MaxInt64),
	value.Bool(true),
	value.Bool(false),
	value.String_("a"),
	value.String_("b"),
	value.LabeledScalar(2.5, 3),
	value.Vector(linalg.VectorOf(1, math.Float64frombits(0xfff8000000000003))),
	value.Vector(linalg.VectorOf(math.Inf(1), -2)),
	value.Vector(linalg.VectorOf(0.5, math.Copysign(0, -1), 3)),
	value.Vector(linalg.VectorOf(2, math.SmallestNonzeroFloat64, -1e200, 1e-3, math.Copysign(0, -1))),
	value.Vector(linalg.VectorOf(-1, 1e100, 0.25, 1e8, 3)),
}

// fuzzCols is the width of a FuzzEvalVec window.
const fuzzCols = 3

var (
	fuzzArith   = []string{"+", "-", "*", "/"}
	fuzzCompare = []string{"=", "<>", "<", "<=", ">", ">="}
	fuzzLogic   = []string{"AND", "OR"}
	fuzzCalls   = []string{"sqrt", "abs", "pow", "label_scalar", "inner_product", "row_matrix"}
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// expr decodes an expression tree at most depth levels deep. Node types are
// not checked: EvalVec reads only the operator and the operands.
func (b *fuzzBytes) expr(depth int) Expr {
	k := b.next() % 9
	if depth == 0 {
		k %= 2
	}
	bin := func(kind BinKind, ops []string) Expr {
		op := ops[b.next()%len(ops)]
		return &Binary{Op: op, Kind: kind, L: b.expr(depth - 1), R: b.expr(depth - 1), T: types.TDouble}
	}
	switch k {
	case 0:
		return &Col{Idx: b.next() % fuzzCols, T: types.TDouble}
	case 1:
		return &Const{V: fuzzCells[b.next()%len(fuzzCells)], T: types.TDouble}
	case 2, 3:
		return bin(BinArith, fuzzArith)
	case 4:
		return bin(BinCompare, fuzzCompare)
	case 5:
		return bin(BinLogic, fuzzLogic)
	case 6:
		return &Not{E: b.expr(depth - 1)}
	case 7:
		return &Neg{E: b.expr(depth - 1), T: types.TDouble}
	}
	fn, _ := builtins.Lookup(fuzzCalls[b.next()%len(fuzzCalls)])
	args := make([]Expr, len(fn.Sig.Params))
	for i := range args {
		args[i] = b.expr(depth - 1)
	}
	return &Call{Fn: fn, Args: args, T: types.TDouble}
}

// FuzzEvalVec decodes an expression tree and a window of 1–8 rows, evaluates
// the whole window, then each lane as a one-lane window of its own. When the
// whole window evaluates, every lane must evaluate alone to the same value,
// bit for bit: a lane's result may not depend on its neighbours.
func FuzzEvalVec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 2, 0, 7, 0, 0, 0, 0})     // -x + x over a window of doubles
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 2, 0, 7, 0, 0, 0, 0})     // -x + x at a NaN beside a NULL
	f.Add([]byte{1, 2, 1, 0, 11, 0, 0, 2, 2, 0, 0, 0, 1})       // NaN * NaN beside an INTEGER
	f.Add([]byte{3, 1, 0, 0, 1, 10, 2, 3, 2, 2, 0, 0, 0, 0, 1}) // mixed kinds and a NULL
	f.Add([]byte{7, 9, 19, 20, 0, 19, 1, 2, 8, 1, 0, 0, 0, 1, 0, 1, 2})
	f.Add([]byte{0, 4, 4, 0, 0, 1, 1, 5, 5, 0, 0, 0, 0, 0, 0, 0})
	// inner_product over typed VECTOR columns: four lanes of five entries,
	// then a lane of two; then the same lengths mixed within the four.
	f.Add([]byte{4, 22, 23, 0, 23, 22, 0, 22, 22, 0, 23, 23, 0, 19, 20, 0, 8, 4, 0, 0, 0, 1})
	f.Add([]byte{4, 22, 23, 0, 19, 20, 0, 21, 21, 0, 20, 19, 0, 23, 22, 0, 8, 4, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		rows := make(rowsSource, 1+b.next()%8)
		for i := range rows {
			rows[i] = make(value.Row, fuzzCols)
			for j := range rows[i] {
				rows[i][j] = fuzzCells[b.next()%len(fuzzCells)]
			}
		}
		e := b.expr(4)
		whole, err := EvalVec(e, rows, nil)
		if err != nil {
			return
		}
		for i, row := range rows {
			one, err := EvalVec(e, rowsSource{row}, nil)
			if err != nil {
				t.Fatalf("%s: lane %d %v fails alone (%v) but not in its window %v", e, i, row, err, rows)
			}
			if got, want := one.Value(0), whole.Value(i); !sameBits(got, want) {
				t.Fatalf("%s: lane %d %v gives %v (D bits %016x) alone, %v (%016x) in its window %v",
					e, i, row, got, math.Float64bits(got.D), want, math.Float64bits(want.D), rows)
			}
		}
	})
}
