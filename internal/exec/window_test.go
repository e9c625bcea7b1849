package exec

import (
	"fmt"
	"slices"
	"testing"

	"relalg/internal/linalg"
	"relalg/internal/value"
)

// windowCell is row i's cell of a column of the given shape: typed INTEGER,
// typed VECTOR, generic because of a NULL lane, or generic because its lanes
// mix INTEGER and DOUBLE. seed makes every column's values its own.
func windowCell(shape, seed, i int) value.Value {
	x := float64(seed*100 + i)
	switch shape % 4 {
	case 0:
		return value.Int(int64(x))
	case 1:
		return value.Vector(linalg.VectorOf(x, -x))
	case 2:
		if i == 3 {
			return value.Null()
		}
		return value.Double(x)
	default:
		if i%2 == 1 {
			return value.Int(int64(x))
		}
		return value.Double(-x)
	}
}

// colBits renders a column's storage and each lane's encoded bytes.
func colBits(c *value.Col) string {
	rows := make([]value.Row, c.Len())
	for i := range rows {
		rows[i] = value.Row{c.Value(i)}
	}
	return fmt.Sprintf("generic=%v kind=%v %x", c.Generic, c.Kind, value.EncodeRows(rows))
}

// TestRowWindowMatchesGatherMulti pins the one window over rows to
// value.GatherMulti over the concatenated rows: for windows of rows and of
// pairs, at several offsets and side widths, every column (in the read set or
// gathered on first use) equals the gather by bits, and own returns each lane
// as the row or the concatenated pair. One window is re-opened at every shape,
// with new values each time, so a column kept from an earlier opening shows.
func TestRowWindowMatchesGatherMulti(t *testing.T) {
	const nrows = 6
	side := func(width, shape, seed int) []value.Row {
		rows := make([]value.Row, nrows)
		for i := range rows {
			rows[i] = make(value.Row, width)
			for j := range rows[i] {
				rows[i][j] = windowCell(shape+j, seed+j, i)
			}
		}
		return rows
	}
	var (
		w     rowWindow
		arena rowArena
	)
	seed := 0
	for _, lw := range []int{3, 1, 2} {
		for _, rw := range []int{0, 2, 1, 3} { // 0: a window of rows
			for _, lo := range []int{0, 2} {
				seed++
				left := side(lw, seed, 10*seed)
				var right []value.Row
				if rw > 0 {
					right = side(rw, seed+1, 10*seed+5)
				}
				width, n := lw+rw, nrows-lo
				// Every other column is read; the rest are gathered on first use.
				w.reads = w.reads[:0]
				for j := seed % 2; j < width; j += 2 {
					w.reads = append(w.reads, j)
				}
				w.open(left, right, lo, nrows)
				name := fmt.Sprintf("left %d right %d lo %d reads %v", lw, rw, lo, w.reads)

				cat := make([]value.Row, n)
				for i := range cat {
					cat[i] = slices.Clone(left[lo+i])
					if right != nil {
						cat[i] = append(cat[i], right[lo+i]...)
					}
				}
				idxs, want := make([]int, width), make([]*value.Col, width)
				for j := range idxs {
					idxs[j], want[j] = j, new(value.Col)
				}
				value.GatherMulti(cat, 0, n, idxs, want)

				if got := w.BatchLen(); got != n {
					t.Fatalf("%s: %d lanes, want %d", name, got, n)
				}
				for idx := width - 1; idx >= 0; idx-- {
					c, err := w.BatchCol(idx)
					if err != nil {
						t.Fatalf("%s: column %d: %v", name, idx, err)
					}
					if got, want := colBits(c), colBits(want[idx]); got != want {
						t.Fatalf("%s: column %d:\n got %s\nwant %s", name, idx, got, want)
					}
				}
				if _, err := w.BatchCol(width); err == nil {
					t.Fatalf("%s: column %d past the width did not fail", name, width)
				}

				owned := make([]value.Row, n)
				for i := range owned {
					owned[i] = w.own(i, &arena)
					if right == nil && &owned[i][0] != &left[lo+i][0] {
						t.Fatalf("%s: own(%d) is not the row itself", name, i)
					}
				}
				for i := range owned {
					_ = append(owned[i], value.Int(-1))
				}
				for i := range owned {
					if got, want := value.EncodeRows(owned[i:i+1]), value.EncodeRows(cat[i:i+1]); string(got) != string(want) {
						t.Fatalf("%s: own(%d) = %v, want %v", name, i, owned[i], cat[i])
					}
				}
			}
		}
	}
}
