package plan

import (
	"fmt"
	"strings"

	"relalg/internal/builtins"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
)

// aggEnv is the grouping environment Builder.compile consults in a grouped
// query: the GROUP BY expressions and the aggregate calls collected so far.
type aggEnv struct {
	b        *Builder
	inScope  *scope
	keyIndex map[string]int // ExprString(group ast) -> group column
	keyTypes []types.T
	calls    []AggCall
	callIdx  map[string]int // ExprString(agg ast) -> call index
}

// buildAggregate compiles the grouped form of a SELECT. It returns the node
// the final projection reads from (Agg, possibly wrapped in a HAVING
// filter), the projection expressions and names, the output scope, and a
// builder for ORDER BY keys in the same environment.
func (b *Builder) buildAggregate(sel *sqlparse.Select, input Node, inScope *scope) (Node, []Expr, []string, *scope, func(sqlparse.Expr) (Expr, error), error) {
	env := &aggEnv{
		b:        b,
		inScope:  inScope,
		keyIndex: map[string]int{},
		callIdx:  map[string]int{},
	}
	var groupExprs []Expr
	groupNames := make([]string, 0, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		e, err := b.buildScalar(g, inScope)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		key := sqlparse.ExprString(g)
		if _, dup := env.keyIndex[key]; dup {
			continue
		}
		env.keyIndex[key] = len(groupExprs)
		env.keyTypes = append(env.keyTypes, e.Type())
		groupExprs = append(groupExprs, e)
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*sqlparse.ColRef); ok {
			name = cr.Column
		}
		groupNames = append(groupNames, name)
	}

	var projExprs []Expr
	var projNames []string
	for i, item := range sel.Items {
		if item.Star {
			return nil, nil, nil, nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
		}
		e, err := env.build(item.Expr)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		projExprs = append(projExprs, e)
		projNames = append(projNames, itemName(item, i))
	}

	var havingExpr Expr
	if sel.Having != nil {
		e, err := env.build(sel.Having)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		if e.Type().Base != types.Bool {
			return nil, nil, nil, nil, nil, fmt.Errorf("plan: HAVING clause is %s, want BOOLEAN", e.Type())
		}
		havingExpr = e
	}

	out := make(Schema, 0, len(groupExprs)+len(env.calls))
	for i, g := range groupExprs {
		out = append(out, Field{Name: groupNames[i], T: g.Type()})
	}
	for i, c := range env.calls {
		out = append(out, Field{Name: fmt.Sprintf("agg%d", i), T: c.T})
	}
	var node Node = &Agg{Input: input, GroupBy: groupExprs, Aggs: env.calls, Out: out}
	if havingExpr != nil {
		node = &Filter{Input: node, Pred: havingExpr}
	}

	outScope := &scope{}
	for i, name := range projNames {
		outScope.cols = append(outScope.cols, scopeCol{name: name, t: projExprs[i].Type()})
	}
	return node, projExprs, projNames, outScope, env.build, nil
}

// build compiles an expression in the grouped environment.
func (env *aggEnv) build(e sqlparse.Expr) (Expr, error) {
	return env.b.compile(e, env.inScope, env)
}

func (env *aggEnv) buildAggCall(x *sqlparse.FuncCall) (Expr, error) {
	spec, _ := builtins.LookupAgg(x.Name)
	key := sqlparse.ExprString(x)
	if idx, ok := env.callIdx[key]; ok {
		base := len(env.keyTypes)
		return &Col{Idx: base + idx, Name: fmt.Sprintf("agg%d", idx), T: env.calls[idx].T}, nil
	}
	var (
		input Expr
		inT   types.T
	)
	switch {
	case x.Star:
		if spec != builtins.Count {
			return nil, fmt.Errorf("plan: %s(*) is only valid for COUNT", strings.ToUpper(x.Name))
		}
	case len(x.Args) != 1:
		return nil, fmt.Errorf("plan: aggregate %s takes exactly one argument", strings.ToUpper(x.Name))
	default:
		e, err := env.b.buildScalar(x.Args[0], env.inScope)
		if err != nil {
			return nil, err
		}
		input = e
		inT = e.Type()
	}
	resT, err := spec.ResultType(inT)
	if err != nil {
		return nil, fmt.Errorf("plan: %s", err)
	}
	idx := len(env.calls)
	env.calls = append(env.calls, AggCall{Spec: spec, Input: input, T: resT})
	env.callIdx[key] = idx
	base := len(env.keyTypes)
	return &Col{Idx: base + idx, Name: fmt.Sprintf("agg%d", idx), T: resT}, nil
}
