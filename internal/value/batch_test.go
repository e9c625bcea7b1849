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

func TestColGatherValueRoundTrip(t *testing.T) {
	rows := batchTestRows()
	b := BatchFromRows(rows)
	if b.N != len(rows) || len(b.Cols) != 4 {
		t.Fatalf("batch shape N=%d cols=%d", b.N, len(b.Cols))
	}
	for j := range b.Cols {
		if b.Cols[j].Generic {
			t.Fatalf("col %d unexpectedly generic", j)
		}
		for i := range rows {
			got, want := b.Cols[j].Value(i), rows[i][j]
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
	c.Gather(rows, 0, len(rows), 0)
	if !c.Generic {
		t.Fatal("mixed-kind column must be generic")
	}
	for i := range rows {
		if !c.Value(i).Equal(rows[i][0]) && rows[i][0].Kind != KindNull {
			t.Fatalf("lane %d mismatch", i)
		}
	}
	// Leading NULL also degrades.
	c.Gather([]Row{{Null()}, {Int(1)}}, 0, 2, 0)
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
		c.Gather(rows, 0, len(rows), 0)
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
		b := BatchFromRows(tc.rows)
		combined := make([]uint64, b.N)
		for i := range combined {
			combined[i] = KeyHashInit
		}
		scratch := make([]uint64, b.N)
		for _, kc := range tc.keyCols {
			b.Cols[kc].HashesInto(scratch, nil)
			CombineKeyHashes(combined, scratch, nil)
		}
		for i, r := range tc.rows {
			if want := HashRowKey(r, tc.keyCols); combined[i] != want {
				t.Fatalf("key %v lane %d: combined %x want %x", tc.keyCols, i, combined[i], want)
			}
		}
	}
}

func TestBatchAppendRowsHonorsSelection(t *testing.T) {
	rows := batchTestRows()
	b := BatchFromRows(rows)
	b.Sel = []int32{1, 3}
	out := b.AppendRows(nil)
	if len(out) != 2 {
		t.Fatalf("got %d rows", len(out))
	}
	for k, i := range []int{1, 3} {
		gb := EncodeRows([]Row{out[k]})
		wb := EncodeRows([]Row{rows[i]})
		if string(gb) != string(wb) {
			t.Fatalf("selected row %d mismatch", i)
		}
	}
}

func TestBatchDeepCloneSeversAliasing(t *testing.T) {
	v := &linalg.Vector{Data: []float64{1, 2, 3}}
	rows := []Row{
		{Vector(v), Int(1)},
		{Vector(v), Int(2)},
	}
	b := BatchFromRows(rows)
	b.Sel = []int32{1}
	clone := b.DeepClone()
	if clone.N != 1 || clone.Sel != nil {
		t.Fatalf("clone must be compacted: N=%d sel=%v", clone.N, clone.Sel)
	}
	clone.Cols[0].Vec[0].Data[0] = 99
	if v.Data[0] != 1 {
		t.Fatal("DeepClone shares vector backing storage")
	}
	if got := clone.Cols[1].I[0]; got != 2 {
		t.Fatalf("clone kept wrong lane: %d", got)
	}
}

func TestColAppendFromAndSizeBytes(t *testing.T) {
	rows := batchTestRows()
	b := BatchFromRows(rows)
	var key Col
	for i := 0; i < b.N; i++ {
		key.AppendFrom(&b.Cols[2], i)
	}
	if key.Generic || key.Kind != KindString {
		t.Fatal("uniform string appends must stay typed")
	}
	// Mismatched kind degrades.
	key.AppendFrom(&b.Cols[0], 0)
	if !key.Generic || key.Len() != b.N+1 {
		t.Fatal("mixed append must degrade to generic")
	}
	for j := range b.Cols {
		for i := 0; i < b.N; i++ {
			if got, want := b.Cols[j].SizeBytesAt(i), rows[i][j].SizeBytes(); got != want {
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

func TestGatherMultiMatchesGather(t *testing.T) {
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
	}
	for ci, rows := range cases {
		width := len(rows[0])
		idxs := make([]int, width)
		for j := range idxs {
			idxs[j] = j
		}
		multi := make([]*Col, width)
		for j := range multi {
			multi[j] = new(Col)
		}
		// Windows exercise lo/hi offsets, not just full-range gathers.
		for lo := 0; lo < len(rows); lo++ {
			for hi := lo + 1; hi <= len(rows); hi++ {
				GatherMulti(rows, lo, hi, idxs, multi)
				for j := 0; j < width; j++ {
					var single Col
					single.Gather(rows, lo, hi, j)
					if multi[j].Generic != single.Generic {
						t.Fatalf("case %d col %d [%d:%d]: generic %v want %v",
							ci, j, lo, hi, multi[j].Generic, single.Generic)
					}
					for i := 0; i < hi-lo; i++ {
						gb := EncodeRows([]Row{{multi[j].Value(i)}})
						wb := EncodeRows([]Row{{single.Value(i)}})
						if string(gb) != string(wb) {
							t.Fatalf("case %d col %d [%d:%d] lane %d: %v want %v",
								ci, j, lo, hi, i, multi[j].Value(i), single.Value(i))
						}
					}
				}
			}
		}
	}
}
