package opt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"relalg/internal/plan"
	"relalg/internal/types"
)

// tupleCPUCost is the modelled fixed cost of pushing one tuple through an
// operator — the per-tuple overhead the paper identifies as the downfall of
// tuple-based linear algebra.
const tupleCPUCost = 4.0

// globalCol is one column of the MultiJoin's concatenated schema.
type globalCol struct {
	rel   int
	local int
	name  string
	t     types.T
}

// conjunct is one WHERE conjunct over the concatenated schema.
type conjunct struct {
	expr plan.Expr
	rels uint
	// Equi-join edge decomposition (valid when isEdge).
	isEdge bool
	e1, e2 plan.Expr // the two sides, over the concatenated schema
	m1, m2 uint      // relation masks of each side
}

// consumer is an expression evaluated immediately above the MultiJoin
// (projection output, group key, or aggregate input).
type consumer struct {
	expr     plan.Expr
	rels     uint
	cols     []int
	outWidth float64
	inWidth  float64 // summed width of referenced columns
	trivial  bool    // bare column / constant: never eager-computed
}

// joinState carries everything planMultiJoin computes up front.
type joinState struct {
	o         *Optimizer
	inputs    []plan.Node // after filter pushdown
	rowsAfter []float64
	gcols     []globalCol
	offsets   []int
	edges     []*conjunct
	residuals []*conjunct
	consumers []*consumer
	nrel      int

	// DP memo, indexed by relation-set bitmask.
	rowsMemo  map[uint]float64
	widthMemo map[uint]float64
	keepMemo  map[uint][]int
	eligMemo  map[uint][]int
	cost      map[uint]float64
	split     map[uint][2]uint
}

// planMultiJoin orders the join set and returns the join tree plus the
// consumer expressions rewritten over its output schema.
func (o *Optimizer) planMultiJoin(mj *plan.MultiJoin, consumed []plan.Expr) (plan.Node, []plan.Expr, error) {
	st := &joinState{
		o:         o,
		nrel:      len(mj.Inputs),
		rowsMemo:  map[uint]float64{},
		widthMemo: map[uint]float64{},
		keepMemo:  map[uint][]int{},
		eligMemo:  map[uint][]int{},
		cost:      map[uint]float64{},
		split:     map[uint][2]uint{},
	}

	// Global column layout.
	off := 0
	for rel, in := range mj.Inputs {
		st.offsets = append(st.offsets, off)
		for local, f := range in.Schema() {
			st.gcols = append(st.gcols, globalCol{rel: rel, local: local, name: f.Name, t: f.T})
			off++
		}
	}

	// Optimize inputs and set base cardinalities. The rewrite pass (when
	// enabled) already covered these subtrees on the way in, so this is the
	// join-ordering recursion only.
	for _, in := range mj.Inputs {
		oin, err := o.optimizeNode(in)
		if err != nil {
			return nil, nil, err
		}
		st.inputs = append(st.inputs, oin)
		st.rowsAfter = append(st.rowsAfter, EstimateRows(oin))
	}

	// Classify conjuncts: single-relation filters push down; cross-relation
	// equalities become join edges; the rest are residual predicates.
	for _, c := range mj.Conjuncts {
		cols := plan.ColsUsed(c)
		mask := st.maskOf(cols)
		switch bits.OnesCount(mask) {
		case 0:
			st.residuals = append(st.residuals, &conjunct{expr: c, rels: mask})
		case 1:
			rel := subsetBits(mask)[0]
			local, err := plan.Remap(c, st.globalToLocal(rel))
			if err != nil {
				return nil, nil, err
			}
			st.rowsAfter[rel] = math.Max(1, st.rowsAfter[rel]*filterSelectivity(st.inputs[rel], local, st.rowsAfter[rel]))
			st.inputs[rel] = &plan.Filter{Input: st.inputs[rel], Pred: local}
		default:
			if e := st.asEdge(c, mask); e != nil {
				st.edges = append(st.edges, e)
			} else {
				st.residuals = append(st.residuals, &conjunct{expr: c, rels: mask})
			}
		}
	}

	// Consumers, deduplicated by structure.
	seen := map[string]int{}
	consumerOf := make([]int, len(consumed))
	for i, e := range consumed {
		key := e.String()
		if idx, ok := seen[key]; ok {
			consumerOf[i] = idx
			continue
		}
		cols := plan.ColsUsed(e)
		mask := st.maskOf(cols)
		var inW float64
		for _, c := range cols {
			inW += o.colWidth(st.gcols[c].t)
		}
		_, isCol := e.(*plan.Col)
		cons := &consumer{
			expr:     e,
			rels:     mask,
			cols:     cols,
			outWidth: o.colWidth(e.Type()),
			inWidth:  inW,
			trivial:  isCol || len(cols) == 0,
		}
		idx := len(st.consumers)
		st.consumers = append(st.consumers, cons)
		seen[key] = idx
		consumerOf[i] = idx
	}

	full := uint(1)<<st.nrel - 1
	if st.nrel == 1 {
		// Degenerate single input (shouldn't occur from the builder, but be safe).
		node, colmap, computed, err := st.build(1)
		if err != nil {
			return nil, nil, err
		}
		rewritten, err := st.rewriteConsumers(consumed, consumerOf, colmap, computed)
		if err != nil {
			return nil, nil, err
		}
		return node, rewritten, nil
	}

	// DP join enumeration (greedy fallback for very large join sets).
	if st.nrel <= o.opts.MaxDPRelations {
		st.enumerate(full)
	} else {
		st.greedy(full)
	}

	node, colmap, computed, err := st.build(full)
	if err != nil {
		return nil, nil, err
	}
	rewritten, err := st.rewriteConsumers(consumed, consumerOf, colmap, computed)
	if err != nil {
		return nil, nil, err
	}
	return node, rewritten, nil
}

func (st *joinState) rewriteConsumers(consumed []plan.Expr, consumerOf []int, colmap map[int]int, computed map[int]int) ([]plan.Expr, error) {
	out := make([]plan.Expr, len(consumed))
	for i := range consumed {
		ci := consumerOf[i]
		cons := st.consumers[ci]
		if pos, ok := computed[ci]; ok {
			out[i] = &plan.Col{Idx: pos, Name: fmt.Sprintf("expr%d", ci), T: cons.expr.Type()}
			continue
		}
		e, err := plan.Remap(cons.expr, colmap)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func (st *joinState) maskOf(cols []int) uint {
	var m uint
	for _, c := range cols {
		m |= 1 << uint(st.gcols[c].rel)
	}
	return m
}

// globalToLocal maps the global ids of one relation's columns to its local
// schema positions.
func (st *joinState) globalToLocal(rel int) map[int]int {
	m := map[int]int{}
	for gid, gc := range st.gcols {
		if gc.rel == rel {
			m[gid] = gc.local
		}
	}
	return m
}

// asEdge decomposes an equality conjunct into a hash-joinable edge when each
// side's columns come from disjoint, non-empty relation sets.
func (st *joinState) asEdge(c plan.Expr, mask uint) *conjunct {
	be, ok := c.(*plan.Binary)
	if !ok || be.Kind != plan.BinCompare || be.Op != "=" {
		return nil
	}
	m1 := st.maskOf(plan.ColsUsed(be.L))
	m2 := st.maskOf(plan.ColsUsed(be.R))
	if m1 == 0 || m2 == 0 || m1&m2 != 0 {
		return nil
	}
	return &conjunct{expr: c, rels: mask, isEdge: true, e1: be.L, e2: be.R, m1: m1, m2: m2}
}

// sideDistinct estimates distinct values of one side of a join edge.
func (st *joinState) sideDistinct(side plan.Expr, mask uint) float64 {
	bits := subsetBits(mask)
	if len(bits) == 1 {
		rel := bits[0]
		// On a remap failure fall through to the coarse product estimate.
		if local, err := plan.Remap(side, st.globalToLocal(rel)); err == nil {
			return distinctOf(st.inputs[rel], local, st.rowsAfter[rel])
		}
	}
	r := 1.0
	for _, rel := range bits {
		r *= st.rowsAfter[rel]
	}
	return math.Max(1, r)
}

// rows estimates the cardinality of the join of subset s.
func (st *joinState) rows(s uint) float64 {
	if r, ok := st.rowsMemo[s]; ok {
		return r
	}
	r := 1.0
	for _, rel := range subsetBits(s) {
		r *= st.rowsAfter[rel]
	}
	for _, e := range st.edges {
		if e.rels&s == e.rels {
			d := math.Max(st.sideDistinct(e.e1, e.m1), st.sideDistinct(e.e2, e.m2))
			r /= math.Max(1, d)
		}
	}
	for _, rc := range st.residuals {
		if rc.rels != 0 && rc.rels&s == rc.rels && bits.OnesCount(rc.rels) > 1 {
			r /= 3
		}
	}
	r = math.Max(1, r)
	st.rowsMemo[s] = r
	return r
}

// eligible lists the consumers eager-computed within subset s: non-trivial,
// fully covered, and width-shrinking.
func (st *joinState) eligible(s uint) []int {
	if e, ok := st.eligMemo[s]; ok {
		return e
	}
	var out []int
	if st.o.opts.EagerProjection {
		for i, c := range st.consumers {
			if c.trivial || c.rels == 0 || c.rels&s != c.rels {
				continue
			}
			if c.outWidth < c.inWidth {
				out = append(out, i)
			}
		}
	}
	st.eligMemo[s] = out
	return out
}

// keepCols lists the global columns of s that must remain in s's output:
// used by a conjunct not fully applied inside s, or by a consumer not
// eager-computed inside s.
func (st *joinState) keepCols(s uint) []int {
	if k, ok := st.keepMemo[s]; ok {
		return k
	}
	elig := map[int]bool{}
	for _, i := range st.eligible(s) {
		elig[i] = true
	}
	need := map[int]bool{}
	for _, e := range st.edges {
		if e.rels&s == e.rels {
			continue // applied somewhere inside s
		}
		for _, c := range plan.ColsUsed(e.expr) {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
	}
	for _, rc := range st.residuals {
		if rc.rels&s == rc.rels && bits.OnesCount(rc.rels) > 1 {
			continue
		}
		for _, c := range plan.ColsUsed(rc.expr) {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
	}
	for i, cons := range st.consumers {
		if elig[i] {
			continue
		}
		for _, c := range cons.cols {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
	}
	out := make([]int, 0, len(need))
	for c := range need {
		out = append(out, c)
	}
	slices.Sort(out)
	st.keepMemo[s] = out
	return out
}

func (st *joinState) inSubset(gid int, s uint) bool {
	return s&(1<<uint(st.gcols[gid].rel)) != 0
}

// width estimates the byte width of one output row of subset s.
func (st *joinState) width(s uint) float64 {
	if w, ok := st.widthMemo[s]; ok {
		return w
	}
	w := 0.0
	for _, c := range st.keepCols(s) {
		w += st.o.colWidth(st.gcols[c].t)
	}
	for _, i := range st.eligible(s) {
		w += st.consumers[i].outWidth
	}
	w += 8 // per-row overhead
	st.widthMemo[s] = w
	return w
}

// enumerate runs DP over all subsets (cross products allowed).
func (st *joinState) enumerate(full uint) {
	for rel := 0; rel < st.nrel; rel++ {
		s := uint(1) << uint(rel)
		st.cost[s] = st.rows(s) * (st.width(s) + tupleCPUCost)
	}
	for size := 2; size <= st.nrel; size++ {
		for s := uint(1); s <= full; s++ {
			if bits.OnesCount(s) != size {
				continue
			}
			best := math.Inf(1)
			var bestSplit [2]uint
			// Enumerate proper non-empty splits; (l, r) and (r, l) are
			// both visited, which also picks build/probe sides.
			for l := (s - 1) & s; l != 0; l = (l - 1) & s {
				r := s &^ l
				cl, okl := st.cost[l]
				cr, okr := st.cost[r]
				if !okl || !okr {
					continue
				}
				c := cl + cr + st.joinCost(s, l, r)
				if c < best {
					best = c
					bestSplit = [2]uint{l, r}
				}
			}
			st.cost[s] = best
			st.split[s] = bestSplit
		}
	}
}

// joinCost is the incremental cost of producing subset s from l and r:
// materializing the output plus shuffling both inputs.
func (st *joinState) joinCost(s, l, r uint) float64 {
	out := st.rows(s) * (st.width(s) + tupleCPUCost)
	shuffle := st.rows(l)*st.width(l) + st.rows(r)*st.width(r)
	return out + shuffle
}

// greedy repeatedly merges the cheapest pair (fallback beyond the DP bound).
func (st *joinState) greedy(full uint) {
	var sets []uint
	for rel := 0; rel < st.nrel; rel++ {
		s := uint(1) << uint(rel)
		sets = append(sets, s)
		st.cost[s] = st.rows(s) * (st.width(s) + tupleCPUCost)
	}
	for len(sets) > 1 {
		best := math.Inf(1)
		bi, bj := 0, 1
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				u := sets[i] | sets[j]
				c := st.cost[sets[i]] + st.cost[sets[j]] + st.joinCost(u, sets[i], sets[j])
				if c < best {
					best, bi, bj = c, i, j
				}
			}
		}
		u := sets[bi] | sets[bj]
		st.cost[u] = best
		st.split[u] = [2]uint{sets[bi], sets[bj]}
		ns := sets[:0]
		for k, s := range sets {
			if k != bi && k != bj {
				ns = append(ns, s)
			}
		}
		sets = append(ns, u)
	}
	_ = full
}

// build constructs the plan for subset s, returning the node, the mapping
// from kept global column ids to output positions, and the mapping from
// computed consumer ids to output positions.
func (st *joinState) build(s uint) (plan.Node, map[int]int, map[int]int, error) {
	if bits.OnesCount(s) == 1 {
		return st.buildLeaf(subsetBits(s)[0], s)
	}
	sp := st.split[s]
	ln, lmap, lcomp, err := st.build(sp[0])
	if err != nil {
		return nil, nil, nil, err
	}
	rn, rmap, rcomp, err := st.build(sp[1])
	if err != nil {
		return nil, nil, nil, err
	}
	lwidth := len(ln.Schema())

	// Map global ids and computed consumers into the concatenated schema.
	comb := map[int]int{}
	for g, p := range lmap {
		comb[g] = p
	}
	for g, p := range rmap {
		comb[g] = p + lwidth
	}
	childComputed := map[int]int{}
	for ci, p := range lcomp {
		childComputed[ci] = p
	}
	for ci, p := range rcomp {
		childComputed[ci] = p + lwidth
	}

	// Join keys: edges fully applicable at exactly this node.
	var lkeys, rkeys []plan.Expr
	var residual []plan.Expr
	for _, e := range st.edges {
		if e.rels&s != e.rels || e.rels&sp[0] == e.rels || e.rels&sp[1] == e.rels {
			continue
		}
		switch {
		case e.isEdge && e.m1&sp[0] == e.m1 && e.m2&sp[1] == e.m2:
			lk, err := plan.Remap(e.e1, lmap)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := plan.Remap(e.e2, rmap)
			if err != nil {
				return nil, nil, nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		case e.isEdge && e.m2&sp[0] == e.m2 && e.m1&sp[1] == e.m1:
			lk, err := plan.Remap(e.e2, lmap)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := plan.Remap(e.e1, rmap)
			if err != nil {
				return nil, nil, nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		default:
			res, err := plan.Remap(e.expr, comb)
			if err != nil {
				return nil, nil, nil, err
			}
			residual = append(residual, res)
		}
	}
	for _, rc := range st.residuals {
		if rc.rels&s != rc.rels || (rc.rels != 0 && (rc.rels&sp[0] == rc.rels || rc.rels&sp[1] == rc.rels)) {
			continue
		}
		res, err := plan.Remap(rc.expr, comb)
		if err != nil {
			return nil, nil, nil, err
		}
		residual = append(residual, res)
	}

	// Concatenated join schema.
	concat := make(plan.Schema, 0, lwidth+len(rn.Schema()))
	concat = append(concat, ln.Schema()...)
	concat = append(concat, rn.Schema()...)

	var joined plan.Node
	if len(lkeys) > 0 {
		joined = &plan.Join{L: ln, R: rn, LKeys: lkeys, RKeys: rkeys, Residual: residual, Out: concat}
	} else {
		joined = &plan.Cross{L: ln, R: rn, Residual: residual, Out: concat}
	}

	return st.projectSubset(s, joined, comb, childComputed)
}

// buildLeaf wraps one input with pruning/eager projection as needed.
func (st *joinState) buildLeaf(rel int, s uint) (plan.Node, map[int]int, map[int]int, error) {
	node := st.inputs[rel]
	local := st.globalToLocal(rel)
	// comb maps global ids straight to the leaf's schema positions.
	return st.projectSubset(s, node, local, map[int]int{})
}

// projectSubset adds the projection for subset s over node: it keeps
// keepCols(s), carries forward already-computed consumers, and computes the
// newly eligible ones. comb maps global column ids to node schema positions;
// childComputed maps consumer ids to node schema positions.
func (st *joinState) projectSubset(s uint, node plan.Node, comb map[int]int, childComputed map[int]int) (plan.Node, map[int]int, map[int]int, error) {
	keep := st.keepCols(s)
	elig := st.eligible(s)

	var exprs []plan.Expr
	var out plan.Schema
	colmap := map[int]int{}
	computed := map[int]int{}

	for _, g := range keep {
		pos, ok := comb[g]
		if !ok {
			return nil, nil, nil, fmt.Errorf("opt: keep column %d not present in subset output", g)
		}
		gc := st.gcols[g]
		exprs = append(exprs, &plan.Col{Idx: pos, Name: gc.name, T: gc.t})
		colmap[g] = len(out)
		out = append(out, plan.Field{Name: gc.name, T: gc.t})
	}
	for _, ci := range elig {
		name := fmt.Sprintf("expr%d", ci)
		if pos, ok := childComputed[ci]; ok {
			exprs = append(exprs, &plan.Col{Idx: pos, Name: name, T: st.consumers[ci].expr.Type()})
		} else {
			e, err := plan.Remap(st.consumers[ci].expr, comb)
			if err != nil {
				return nil, nil, nil, err
			}
			exprs = append(exprs, e)
		}
		computed[ci] = len(out)
		out = append(out, plan.Field{Name: name, T: st.consumers[ci].expr.Type()})
	}

	// Skip the projection when it is a pure identity of the node schema.
	if len(exprs) == len(node.Schema()) {
		identity := true
		for i, e := range exprs {
			c, ok := e.(*plan.Col)
			if !ok || c.Idx != i {
				identity = false
				break
			}
		}
		if identity {
			return node, colmap, computed, nil
		}
	}
	return &plan.Project{Input: node, Exprs: exprs, Out: out}, colmap, computed, nil
}
