package value

import (
	"math"
	"testing"

	"relalg/internal/linalg"
)

func batchTestRows() []Row {
	return []Row{
		{Int(1), Double(1.5), String_("a"), Bool(true)},
		{Int(-2), Double(math.NaN()), String_(""), Bool(false)},
		{Int(1 << 60), Double(math.Inf(1)), String_("zz"), Bool(true)},
		{Int(0), Double(math.Copysign(0, -1)), String_("a"), Bool(false)},
	}
}

// gatherCols gathers every column of rows in one GatherMulti call.
func gatherCols(rows []Row) []Col {
	cols := make([]Col, len(rows[0]))
	idxs, dst := make([]int, len(cols)), make([]*Col, len(cols))
	for j := range cols {
		idxs[j], dst[j] = j, &cols[j]
	}
	GatherMulti(rows, 0, len(rows), idxs, dst)
	return cols
}

// gatherCol gathers column idx of rows[lo:hi] alone into c.
func gatherCol(c *Col, rows []Row, lo, hi, idx int) {
	GatherMulti(rows, lo, hi, []int{idx}, []*Col{c})
}

func TestColGatherValueRoundTrip(t *testing.T) {
	rows := batchTestRows()
	cols := gatherCols(rows)
	for j := range cols {
		if cols[j].Len() != len(rows) || cols[j].Generic {
			t.Fatalf("col %d: %d lanes, generic %v", j, cols[j].Len(), cols[j].Generic)
		}
		for i := range rows {
			got, want := cols[j].Value(i), rows[i][j]
			gb := EncodeRows([]Row{{got}})
			wb := EncodeRows([]Row{{want}})
			if string(gb) != string(wb) {
				t.Fatalf("col %d lane %d: got %v want %v", j, i, got, want)
			}
		}
	}
}

func TestColGatherDegradesOnMixedKinds(t *testing.T) {
	rows := []Row{{Int(1)}, {Double(2)}, {Null()}}
	var c Col
	gatherCol(&c, rows, 0, len(rows), 0)
	if !c.Generic {
		t.Fatal("mixed-kind column must be generic")
	}
	for i := range rows {
		if !c.Value(i).Equal(rows[i][0]) && rows[i][0].Kind != KindNull {
			t.Fatalf("lane %d mismatch", i)
		}
	}
	// Leading NULL also degrades.
	gatherCol(&c, []Row{{Null()}, {Int(1)}}, 0, 2, 0)
	if !c.Generic {
		t.Fatal("null-leading column must be generic")
	}
}

func TestColHashesMatchValueHash(t *testing.T) {
	vec := Value{Kind: KindVector, Vec: &linalg.Vector{Data: []float64{1, math.NaN(), -0.0}}, Label: 7}
	mat := Value{Kind: KindMatrix, Mat: &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}}
	cols := [][]Row{
		{{Int(5)}, {Int(-5)}, {Int(0)}},
		{{Double(3)}, {Double(-0.0)}, {Double(math.NaN())}},
		{{String_("abc")}, {String_("")}, {String_("x")}},
		{{Bool(true)}, {Bool(false)}, {Bool(true)}},
		{{vec}, {vec}, {vec}},
		{{mat}, {mat}, {mat}},
		{{Int(1)}, {Null()}, {String_("mix")}}, // generic
	}
	for ci, rows := range cols {
		var c Col
		gatherCol(&c, rows, 0, len(rows), 0)
		dst := make([]uint64, len(rows))
		c.HashesInto(dst, nil)
		for i := range rows {
			if want := rows[i][0].Hash(); dst[i] != want {
				t.Fatalf("col set %d lane %d: hash %x want %x", ci, i, dst[i], want)
			}
		}
		// Selected variant touches only selected lanes.
		dst2 := make([]uint64, len(rows))
		sel := []int32{0, 2}
		c.HashesInto(dst2, sel)
		for _, i := range sel {
			if dst2[i] != dst[i] {
				t.Fatalf("col set %d sel lane %d: hash mismatch", ci, i)
			}
		}
	}
}

// TestCombineKeyHashesMatchesHashRowKey pins the executor's columnar key hash
// to HashRowKey, which places PARTITION BY HASH tables: a join skips moving a
// side placed on its key only because the two agree.
func TestCombineKeyHashesMatchesHashRowKey(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2.5}
	var doubles []Row
	for i, x := range special {
		doubles = append(doubles, Row{Double(x), Double(special[(i+3)%len(special)])})
	}
	for _, tc := range []struct {
		rows    []Row
		keyCols []int
	}{
		{batchTestRows(), []int{0, 2, 3}},
		{doubles, []int{0, 1}}, // a DOUBLE pair key over NaN, ±Inf and -0 lanes
	} {
		cols := gatherCols(tc.rows)
		combined := make([]uint64, len(tc.rows))
		for i := range combined {
			combined[i] = KeyHashInit
		}
		scratch := make([]uint64, len(tc.rows))
		for _, kc := range tc.keyCols {
			cols[kc].HashesInto(scratch, nil)
			CombineKeyHashes(combined, scratch, nil)
		}
		for i, r := range tc.rows {
			if want := HashRowKey(r, tc.keyCols); combined[i] != want {
				t.Fatalf("key %v lane %d: combined %x want %x", tc.keyCols, i, combined[i], want)
			}
		}
	}
}

func TestColSizeBytesAt(t *testing.T) {
	rows := batchTestRows()
	cols := gatherCols(rows)
	for j := range cols {
		for i := range rows {
			if got, want := cols[j].SizeBytesAt(i), rows[i][j].SizeBytes(); got != want {
				t.Fatalf("col %d lane %d: size %d want %d", j, i, got, want)
			}
		}
	}
}

func TestColSpecialize(t *testing.T) {
	var c Col
	c.Generic = true
	c.Any = []Value{Int(1), Null(), Int(3)}
	c.Specialize(3, []int32{0, 2})
	if c.Generic || c.Kind != KindInt {
		t.Fatal("selected-uniform column must specialize")
	}
	if c.I[0] != 1 || c.I[2] != 3 {
		t.Fatal("specialized lanes lost values")
	}
	var d Col
	d.Generic = true
	d.Any = []Value{Int(1), Null(), Int(3)}
	d.Specialize(3, nil)
	if !d.Generic {
		t.Fatal("NULL-bearing dense column must stay generic")
	}
}

// TestGatherMultiMatchesRows pins GatherMulti to the rows it gathers from:
// over every window of each case, in an all-columns call and in a one-index
// call per column, each lane holds its row cell's bytes under EncodeRows, and
// a column is generic exactly when some lane is NULL or differs in kind from
// the first lane, typed as the first lane otherwise.
func TestGatherMultiMatchesRows(t *testing.T) {
	vec := Value{Kind: KindVector, Vec: &linalg.Vector{Data: []float64{1, math.NaN(), -0.0}}, Label: 7}
	mat := Value{Kind: KindMatrix, Mat: &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{3, 4}}}
	cases := [][]Row{
		batchTestRows(),
		{ // degrading columns: kind change mid-window, leading NULL
			{Int(1), Null(), LabeledScalar(1.5, 3)},
			{Double(2), Int(7), LabeledScalar(math.NaN(), -1)},
			{Null(), String_("x"), Double(9)},
		},
		{ // single row
			{Bool(false), Int(42), Double(-0.0)},
		},
		{ // vectors and matrices, and a vector column with a NULL lane
			{vec, mat, vec},
			{vec, mat, Null()},
		},
	}
	check := func(ci, lo, hi, j int, c *Col, rows []Row) {
		t.Helper()
		if c.Len() != hi-lo {
			t.Fatalf("case %d col %d [%d:%d]: %d lanes", ci, j, lo, hi, c.Len())
		}
		first := rows[lo][j].Kind
		generic := false
		for i := lo; i < hi; i++ {
			generic = generic || rows[i][j].Kind != first || rows[i][j].Kind == KindNull
		}
		if c.Generic != generic || (!generic && c.Kind != first) {
			t.Fatalf("case %d col %d [%d:%d]: generic %v kind %v, want generic %v kind %v",
				ci, j, lo, hi, c.Generic, c.Kind, generic, first)
		}
		for i := 0; i < hi-lo; i++ {
			got, want := EncodeRows([]Row{{c.Value(i)}}), EncodeRows([]Row{{rows[lo+i][j]}})
			if string(got) != string(want) {
				t.Fatalf("case %d col %d [%d:%d] lane %d: %v want %v", ci, j, lo, hi, i, c.Value(i), rows[lo+i][j])
			}
		}
	}
	for ci, rows := range cases {
		width := len(rows[0])
		idxs := make([]int, width)
		multi := make([]*Col, width)
		for j := range idxs {
			idxs[j], multi[j] = j, new(Col)
		}
		var one Col
		// Windows exercise lo/hi offsets, not just full-range gathers, and
		// the columns are reused from window to window.
		for lo := 0; lo < len(rows); lo++ {
			for hi := lo + 1; hi <= len(rows); hi++ {
				GatherMulti(rows, lo, hi, idxs, multi)
				for j := 0; j < width; j++ {
					check(ci, lo, hi, j, multi[j], rows)
					gatherCol(&one, rows, lo, hi, j)
					check(ci, lo, hi, j, &one, rows)
				}
			}
		}
	}
}
