package builtins

import "fmt"

// Vectorized scalar kernels for the batch executor. Each kernel writes the
// destination lanes named by sel (every lane of [0,len(dst)) when sel is
// nil) and leaves other lanes untouched, so chained predicates only compute
// on surviving lanes. Semantics mirror Arith/Compare exactly: INT op INT
// stays int64 with a division-by-zero error, every other numeric combination
// (and every numeric comparison, including INT=INT) goes through the float64
// representation as AsDouble does. Each operator runs its own single-op loop,
// so the compiler cannot fuse a multiply-add across expression nodes, and
// Arith's scalar float leg runs VecArithFloat over one lane: a lane's float
// result, a NaN's sign and payload included, is the same bits whether its
// window took a typed loop or the per-lane path of a generic column.

// VecArithInt is the vectorized arithScalar INT×INT leg.
func VecArithInt(op string, dst, l, r []int64, sel []int32) error {
	switch op {
	case "+":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] + r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] + r[i]
			}
		}
	case "-":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] - r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] - r[i]
			}
		}
	case "*":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] * r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] * r[i]
			}
		}
	case "/":
		if sel == nil {
			for i := range dst {
				if r[i] == 0 {
					return fmt.Errorf("builtins: integer division by zero")
				}
				dst[i] = l[i] / r[i]
			}
		} else {
			for _, i := range sel {
				if r[i] == 0 {
					return fmt.Errorf("builtins: integer division by zero")
				}
				dst[i] = l[i] / r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	return nil
}

// VecArithFloat is the vectorized arithScalar float leg (either operand
// DOUBLE or LABELED SCALAR; labels are dropped exactly as arithScalar drops
// them).
func VecArithFloat(op string, dst, l, r []float64, sel []int32) error {
	switch op {
	case "+":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] + r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] + r[i]
			}
		}
	case "-":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] - r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] - r[i]
			}
		}
	case "*":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] * r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] * r[i]
			}
		}
	case "/":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] / r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] / r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	return nil
}

// VecCmpFloat is the vectorized numeric comparison: every numeric pair —
// including INT with INT — compares through float64 exactly as Compare does
// via AsDouble (deliberately lossy above 2^53, like scalar evaluation).
func VecCmpFloat(op string, dst []bool, l, r []float64, sel []int32) error {
	switch op {
	case "=":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] == r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] == r[i]
			}
		}
	case "<>":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] != r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] != r[i]
			}
		}
	case "<":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] < r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] < r[i]
			}
		}
	case "<=":
		// Ordering goes through Value.Compare in scalar evaluation, which reports
		// 0 when neither side is greater — so a NaN operand makes <= and >=
		// TRUE, unlike IEEE. Replicate that: <= is !(l > r), >= is !(l < r).
		if sel == nil {
			for i := range dst {
				dst[i] = !(l[i] > r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = !(l[i] > r[i])
			}
		}
	case ">":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] > r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] > r[i]
			}
		}
	case ">=":
		if sel == nil {
			for i := range dst {
				dst[i] = !(l[i] < r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = !(l[i] < r[i])
			}
		}
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	return nil
}

// VecCmpString is the vectorized string comparison (Equal for =/<>,
// Value.Compare byte order for the rest).
func VecCmpString(op string, dst []bool, l, r []string, sel []int32) error {
	var f func(a, b string) bool
	switch op {
	case "=":
		f = func(a, b string) bool { return a == b }
	case "<>":
		f = func(a, b string) bool { return a != b }
	case "<":
		f = func(a, b string) bool { return a < b }
	case "<=":
		f = func(a, b string) bool { return a <= b }
	case ">":
		f = func(a, b string) bool { return a > b }
	case ">=":
		f = func(a, b string) bool { return a >= b }
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(l[i], r[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = f(l[i], r[i])
		}
	}
	return nil
}

// VecCmpBool is the vectorized boolean comparison (false orders before true,
// as Value.Compare defines).
func VecCmpBool(op string, dst, l, r []bool, sel []int32) error {
	var f func(a, b bool) bool
	switch op {
	case "=":
		f = func(a, b bool) bool { return a == b }
	case "<>":
		f = func(a, b bool) bool { return a != b }
	case "<":
		f = func(a, b bool) bool { return !a && b }
	case "<=":
		f = func(a, b bool) bool { return !a || b }
	case ">":
		f = func(a, b bool) bool { return a && !b }
	case ">=":
		f = func(a, b bool) bool { return a || !b }
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(l[i], r[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = f(l[i], r[i])
		}
	}
	return nil
}

// VecLogic is the vectorized two-valued AND/OR. It never short-circuits:
// both operand columns are fully evaluated before the combine.
func VecLogic(op string, dst, l, r []bool, sel []int32) error {
	switch op {
	case "AND":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] && r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] && r[i]
			}
		}
	case "OR":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] || r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] || r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown logical operator %q", op)
	}
	return nil
}

// VecNot is vectorized logical negation.
func VecNot(dst, src []bool, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = !src[i]
		}
	} else {
		for _, i := range sel {
			dst[i] = !src[i]
		}
	}
}
