package exec

import (
	"cmp"
	"slices"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// This file holds the hash structure of both the hash join's build and the
// aggregate's group table: a key table handing out dense int32 ids, in
// insertion order, to distinct key tuples, stored once each in typed
// value.Col lanes and found by open addressing on keyEval's hash. Keys compare
// by value.KeyLanesEqual.

// chunkLen is how many ids one chunk of a table's per-id arrays holds.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

// chunked is an array indexed by id in chunks of chunkLen, so growing never
// copies: a table allocates about what it holds. The first chunk grows by
// append, so a few ids cost a few slots.
type chunked[T any] [][]T

func (c *chunked[T]) push(x T) {
	n := len(*c)
	if n == 0 || len((*c)[n-1]) == chunkLen {
		room := 0
		if n > 0 {
			room = chunkLen
		}
		*c = append(*c, make([]T, 0, room))
		n++
	}
	(*c)[n-1] = append((*c)[n-1], x)
}

func (c chunked[T]) at(id int32) *T { return &c[id>>chunkShift][id&(chunkLen-1)] }

// keyTable maps key tuples to dense ids. Its slots are at most three quarters
// full.
type keyTable struct {
	cols  [][]value.Col // [key position][chunk]: chunk c holds ids c·chunkLen onwards
	hash  chunked[uint64]
	slots []int32 // open addressing on the hash: id+1, or 0 when empty
	n     int32
}

func newKeyTable(width int) keyTable {
	return keyTable{cols: make([][]value.Col, width), slots: make([]int32, 8)}
}

// col returns the chunk column holding key position j of id, and id's lane.
func (t *keyTable) col(j int, id int32) (*value.Col, int) {
	return &t.cols[j][id>>chunkShift], int(id & (chunkLen - 1))
}

// find returns the id of the key tuple at lane i of cols, whose hash is h, or
// -1 when the table does not hold it.
func (t *keyTable) find(h uint64, cols []*value.Col, i int) int32 {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return -1
		}
		if id := e - 1; *t.hash.at(id) == h && t.holds(id, cols, i) {
			return id
		}
	}
}

// holds reports whether id's key tuple equals the one at lane i of cols.
func (t *keyTable) holds(id int32, cols []*value.Col, i int) bool {
	for j, c := range cols {
		kc, lane := t.col(j, id)
		if !value.KeyLanesEqual(c, i, kc, lane) {
			return false
		}
	}
	return true
}

// same reports whether id's key tuple equals o's key tuple oid.
func (t *keyTable) same(id int32, o *keyTable, oid int32) bool {
	for j := range t.cols {
		c, lane := o.col(j, oid)
		kc, klane := t.col(j, id)
		if !value.KeyLanesEqual(c, lane, kc, klane) {
			return false
		}
	}
	return true
}

// insert stores the key tuple at lane i of cols, which find did not find, as
// the next id.
func (t *keyTable) insert(h uint64, cols []*value.Col, i int) int32 {
	id := t.n
	t.n++
	for j, c := range cols {
		if id&(chunkLen-1) == 0 {
			t.cols[j] = append(t.cols[j], value.Col{})
		}
		kc, _ := t.col(j, id)
		kc.AppendLane(c, i)
		if id >= chunkLen && id&(chunkLen-1) == 0 {
			kc.Grow(chunkLen - 1)
		}
	}
	t.hash.push(h)
	if 4*int(t.n) > 3*len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for k := range id {
			t.place(k)
		}
	}
	t.place(id)
	return id
}

// place puts id in the first empty slot of its probe sequence.
func (t *keyTable) place(id int32) {
	mask := uint64(len(t.slots) - 1)
	s := *t.hash.at(id) & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = id + 1
}

// groupTable is one partition's groups: their keys in a key table, and one
// state column per aggregate, indexed by group id.
type groupTable struct {
	keys keyTable
	aggs []aggCol
}

// aggOp is how an aggregate column holds its states.
type aggOp uint8

const (
	aggBoxed   aggOp = iota // one builtins.AggState per group
	aggCount                // COUNT: an int64 per group
	aggSum                  // SUM over numbers: a builtins.NumSum per group
	aggAvg                  // AVG over numbers: a builtins.NumSum per group
	aggExtreme              // MIN or MAX over INTEGER or DOUBLE: a builtins.NumExtreme per group
)

// aggCol is one aggregate's states. COUNT, SUM and AVG over numbers, and MIN
// and MAX over INTEGER or DOUBLE, are pointer-free arrays stepped without
// boxing a lane; every other aggregate (LA states, the fused states, MIN and
// MAX over other types) is one AggState per group.
type aggCol struct {
	op       aggOp
	counts   chunked[int64]
	sums     chunked[builtins.NumSum]
	extremes chunked[builtins.NumExtreme]
	max      bool // aggExtreme: MAX, else MIN
	states   chunked[builtins.AggState]
	fresh    func() builtins.AggState // a new boxed state
	fused    builtins.FusedKind       // the fused SUM the states are, if any
}

// newGroupTable makes a's table, whose aggregate j is the fused SUM fused[j]
// (partAgg.fused; nil fuses none). A fused SUM is over matrices, so boxed.
func newGroupTable(a *plan.Agg, fused []builtins.FusedKind) *groupTable {
	t := &groupTable{keys: newKeyTable(len(a.GroupBy)), aggs: make([]aggCol, len(a.Aggs))}
	for j, c := range a.Aggs {
		numeric := c.Input != nil && c.Input.Type().IsNumericScalar()
		intOrDouble := numeric && c.Input.Type().Base != types.LabeledScalar
		switch {
		case c.Spec == builtins.Count:
			t.aggs[j].op = aggCount
		case numeric && c.Spec == builtins.Sum:
			t.aggs[j].op = aggSum
		case numeric && c.Spec == builtins.Avg:
			t.aggs[j].op = aggAvg
		case intOrDouble && (c.Spec == builtins.Min || c.Spec == builtins.Max):
			t.aggs[j].op = aggExtreme
			t.aggs[j].max = c.Spec == builtins.Max
		case fused != nil && fused[j] != builtins.FusedNone:
			kind := fused[j]
			t.aggs[j].fused = kind
			t.aggs[j].fresh = func() builtins.AggState { return builtins.NewFusedSum(kind) }
		default:
			t.aggs[j].fresh = c.Spec.New
		}
	}
	return t
}

func (t *groupTable) len() int32 { return t.keys.n }

func (t *groupTable) hash(id int32) uint64 { return *t.keys.hash.at(id) }

// addStates appends a new group's fresh states.
func (t *groupTable) addStates() {
	for j := range t.aggs {
		switch a := &t.aggs[j]; a.op {
		case aggCount:
			a.counts.push(0)
		case aggSum, aggAvg:
			a.sums.push(builtins.NumSum{})
		case aggExtreme:
			a.extremes.push(builtins.NumExtreme{Max: a.max})
		default:
			a.states.push(a.fresh())
		}
	}
}

// merge folds the states of group oid of o into t's group id.
func (t *groupTable) merge(id int32, o *groupTable, oid int32) error {
	for j := range t.aggs {
		a, b := &t.aggs[j], &o.aggs[j]
		var err error
		switch a.op {
		case aggCount:
			*a.counts.at(id) += *b.counts.at(oid)
		case aggSum, aggAvg:
			err = a.sums.at(id).Merge(b.sums.at(oid))
		case aggExtreme:
			a.extremes.at(id).Merge(b.extremes.at(oid))
		default:
			err = (*a.states.at(id)).Merge(*b.states.at(oid))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// appendRow appends group id's output row, its keys then its aggregates, to
// row.
func (t *groupTable) appendRow(row value.Row, id int32) (value.Row, error) {
	for j := range t.keys.cols {
		c, lane := t.keys.col(j, id)
		row = append(row, c.Value(lane))
	}
	for j := range t.aggs {
		var v value.Value
		var err error
		switch a := &t.aggs[j]; a.op {
		case aggCount:
			v = value.Int(*a.counts.at(id))
		case aggSum:
			v, err = a.sums.at(id).Sum()
		case aggAvg:
			v, err = a.sums.at(id).Avg()
		case aggExtreme:
			v = a.extremes.at(id).Final()
		default:
			v, err = (*a.states.at(id)).Final()
		}
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// groupRef names group id of partition src's table.
type groupRef struct{ src, id int32 }

// refsOf returns the refs of partition src's groups, in output order.
func refsOf(tables []*groupTable, src int) []groupRef {
	refs := make([]groupRef, tables[src].len())
	for id := range refs {
		refs[id] = groupRef{int32(src), int32(id)}
	}
	sortRefs(tables, refs)
	return refs
}

func hashOf(tables []*groupTable, r groupRef) uint64 { return tables[r.src].hash(r.id) }

// sortRefs sorts refs into output order: by hash, then source, then id.
func sortRefs(tables []*groupTable, refs []groupRef) {
	slices.SortFunc(refs, func(a, b groupRef) int {
		return cmp.Or(cmp.Compare(hashOf(tables, a), hashOf(tables, b)), cmp.Compare(a.src, b.src), cmp.Compare(a.id, b.id))
	})
}

// bucketSort groups the indexes [0,n) by key(i), each in [0,keys), ascending
// within a key: key k's are idx[start[k]:start[k+1]].
func bucketSort(n, keys int, key func(i int) int32) (idx, start []int32) {
	start = make([]int32, keys+1)
	for i := range n {
		start[key(i)+1]++
	}
	for k := range keys {
		start[k+1] += start[k]
	}
	idx = make([]int32, n)
	next := slices.Clone(start)
	for i := range n {
		k := key(i)
		idx[next[k]] = int32(i)
		next[k]++
	}
	return idx, start
}

// mergeRefs sorts refs into output order and folds each group into the first
// group of its key in that order, so states merge source ascending and hash
// ascending. It returns the groups that remain, in output order.
func mergeRefs(tables []*groupTable, refs []groupRef) ([]groupRef, error) {
	sortRefs(tables, refs)
	out := refs[:0]
	run := 0 // where out's groups of the current hash start
	for _, r := range refs {
		if len(out) == 0 || hashOf(tables, out[len(out)-1]) != hashOf(tables, r) {
			run = len(out)
		}
		t := tables[r.src]
		lead := run
		for lead < len(out) && !tables[out[lead].src].keys.same(out[lead].id, &t.keys, r.id) {
			lead++
		}
		if lead == len(out) {
			out = append(out, r)
		} else if err := tables[out[lead].src].merge(out[lead].id, t, r.id); err != nil {
			return nil, err
		}
	}
	return out, nil
}
