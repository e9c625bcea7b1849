package exec

// Adaptive mid-query re-optimization. The optimizer picks a join order from
// estimates; when an estimate is off by an order of magnitude the chosen
// order can be catastrophically wrong (the paper's π(S×R)⋈T plan hinges on
// knowing which side is small). The executor is the first component to see
// the truth: at each join-region boundary it has the real input
// cardinalities in hand. When observation and estimate diverge by more than
// Factor in either direction, the region is handed back to the optimizer
// with the materialized inputs pinned as Bound leaves, and the re-ordered
// region runs instead. Work already done is never discarded — leaves execute
// once and are cached.

import (
	"fmt"
	"math"

	"relalg/internal/plan"
)

// Adaptive configures mid-query re-optimization. The executor cannot import
// the optimizer (it would invert the package layering), so the optimizer's
// entry points arrive as function values, wired by core.
type Adaptive struct {
	// Factor is the estimate/observation divergence ratio (either direction)
	// that triggers a re-plan. Values <= 1 disable adaptivity.
	Factor float64
	// Estimate returns the optimizer's cardinality estimate for a node.
	Estimate func(plan.Node) float64
	// Replan re-orders a join region given observed leaf cardinalities.
	Replan func(root plan.Node, observed func(plan.Node) (float64, bool)) (plan.Node, error)
}

// enabled reports whether this configuration can trigger re-planning.
func (a *Adaptive) enabled() bool {
	return a != nil && a.Factor > 1 && a.Estimate != nil && a.Replan != nil
}

// adaptPlan is called when execution reaches the top of a Join/Cross region.
// It executes the region's leaves (caching each materialized relation in
// ctx.bound), compares observed and estimated cardinalities, and either
// returns the region unchanged or a re-planned tree whose Bound leaves
// resolve to the cached relations. Inner joins of the region are marked
// handled so recursion into them skips the divergence check — the region
// re-plans as a whole or not at all.
func adaptPlan(ctx *Context, n plan.Node) (plan.Node, error) {
	a := ctx.Adaptive
	if !a.enabled() {
		return n, nil
	}
	if ctx.adaptiveHandled[n] {
		return n, nil
	}
	var leaves []plan.Node
	collectRegionLeaves(n, &leaves)
	if ctx.bound == nil {
		ctx.bound = map[plan.Node]*Relation{}
	}
	if ctx.adaptiveHandled == nil {
		ctx.adaptiveHandled = map[plan.Node]bool{}
	}
	diverged := false
	for _, leaf := range leaves {
		rel, ok := ctx.bound[leaf]
		if !ok {
			var err error
			rel, err = Run(ctx, leaf)
			if err != nil {
				return nil, err
			}
			ctx.bound[leaf] = rel
		}
		est := math.Max(1, a.Estimate(leaf))
		obs := math.Max(1, float64(rel.NumRows()))
		if est/obs > a.Factor || obs/est > a.Factor {
			diverged = true
		}
	}
	markRegionHandled(ctx, n)
	if !diverged || len(leaves) < 2 {
		return n, nil
	}
	replanned, err := a.Replan(n, func(leaf plan.Node) (float64, bool) {
		rel, ok := ctx.bound[leaf]
		if !ok {
			return 0, false
		}
		return float64(rel.NumRows()), true
	})
	if err != nil {
		return nil, fmt.Errorf("exec: adaptive replan: %w", err)
	}
	markReplannedHandled(ctx, replanned)
	ctx.Cluster.CountReplan()
	return replanned, nil
}

// collectRegionLeaves gathers the inputs of a maximal Join/Cross tree in
// order. Only Join and Cross extend a region: a Project between joins is a
// pipeline boundary and becomes a leaf.
func collectRegionLeaves(n plan.Node, out *[]plan.Node) {
	switch x := n.(type) {
	case *plan.Join:
		collectRegionLeaves(x.L, out)
		collectRegionLeaves(x.R, out)
	case *plan.Cross:
		collectRegionLeaves(x.L, out)
		collectRegionLeaves(x.R, out)
	default:
		*out = append(*out, n)
	}
}

// markRegionHandled marks every Join/Cross of the original region so
// recursion into the kept tree doesn't re-run the divergence check per
// inner join.
func markRegionHandled(ctx *Context, n plan.Node) {
	switch x := n.(type) {
	case *plan.Join:
		ctx.adaptiveHandled[n] = true
		markRegionHandled(ctx, x.L)
		markRegionHandled(ctx, x.R)
	case *plan.Cross:
		ctx.adaptiveHandled[n] = true
		markRegionHandled(ctx, x.L)
		markRegionHandled(ctx, x.R)
	}
}

// markReplannedHandled marks the joins of a freshly re-planned region. The
// re-planned tree may interleave Projects (eager projection) and Filters
// (pushed conjuncts) with its joins, so this walks through everything and
// stops at Bound leaves — below them sits the original, already-executed
// subtree.
func markReplannedHandled(ctx *Context, n plan.Node) {
	switch n.(type) {
	case *plan.Bound:
		return
	case *plan.Join, *plan.Cross:
		ctx.adaptiveHandled[n] = true
	}
	for _, c := range n.Children() {
		markReplannedHandled(ctx, c)
	}
}
