package plan

import (
	"fmt"
	"strings"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
	"relalg/internal/value"
)

// Builder turns parsed SELECT statements into logical plans, resolving names
// against a catalog and type-checking every expression (including dimension
// propagation through the templated built-in signatures).
type Builder struct {
	cat *catalog.Catalog
}

// NewBuilder returns a Builder over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder { return &Builder{cat: cat} }

// scopeCol is one visible column during name resolution.
type scopeCol struct {
	alias string // FROM-item alias (empty for derived output scopes)
	name  string
	t     types.T
}

type scope struct {
	cols []scopeCol
}

func (s *scope) resolve(table, col string) (int, types.T, error) {
	found := -1
	for i, c := range s.cols {
		if c.name != col {
			continue
		}
		if table != "" && c.alias != table {
			continue
		}
		if found >= 0 {
			return 0, types.T{}, fmt.Errorf("plan: ambiguous column reference %q", qualified(table, col))
		}
		found = i
	}
	if found < 0 {
		return 0, types.T{}, fmt.Errorf("plan: unknown column %q", qualified(table, col))
	}
	return found, s.cols[found].t, nil
}

func qualified(table, col string) string {
	if table == "" {
		return col
	}
	return table + "." + col
}

// BuildSelect compiles a SELECT into a logical plan.
func (b *Builder) BuildSelect(sel *sqlparse.Select) (Node, error) {
	n, _, err := b.buildSelect(sel)
	return n, err
}

// buildSelect returns the plan and its output scope (for views/subqueries).
func (b *Builder) buildSelect(sel *sqlparse.Select) (Node, *scope, error) {
	input, inScope, err := b.buildFrom(sel.From)
	if err != nil {
		return nil, nil, err
	}

	// WHERE: either conjuncts of a MultiJoin (several FROM items) or a
	// Filter (single input).
	var conjuncts []Expr
	if sel.Where != nil {
		for _, c := range splitConjuncts(sel.Where) {
			e, err := b.buildScalar(c, inScope)
			if err != nil {
				return nil, nil, err
			}
			if e.Type().Base != types.Bool {
				return nil, nil, fmt.Errorf("plan: WHERE clause %s is %s, want BOOLEAN", e, e.Type())
			}
			conjuncts = append(conjuncts, e)
		}
	}
	if mj, ok := input.(*MultiJoin); ok {
		mj.Conjuncts = conjuncts
	} else if len(conjuncts) > 0 {
		for _, c := range conjuncts {
			input = &Filter{Input: input, Pred: c}
		}
	}

	// Does the query aggregate?
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && containsAggregate(item.Expr) {
			hasAgg = true
		}
	}

	var (
		projExprs  []Expr
		projNames  []string
		projInput  Node
		outScope   *scope
		orderBuild func(sqlparse.Expr) (Expr, error)
	)
	if hasAgg {
		projInput, projExprs, projNames, outScope, orderBuild, err = b.buildAggregate(sel, input, inScope)
		if err != nil {
			return nil, nil, err
		}
	} else {
		projExprs, projNames, err = b.buildPlainItems(sel.Items, inScope)
		if err != nil {
			return nil, nil, err
		}
		projInput = input
		outScope = &scope{}
		for i, name := range projNames {
			outScope.cols = append(outScope.cols, scopeCol{name: name, t: projExprs[i].Type()})
		}
		orderBuild = func(e sqlparse.Expr) (Expr, error) { return b.buildScalar(e, inScope) }
	}

	// ORDER BY: build each key; reuse a projection column when the key
	// matches one, otherwise append it as a hidden column dropped at the end.
	var keys []OrderKey
	hidden := 0
	if len(sel.OrderBy) > 0 {
		for _, item := range sel.OrderBy {
			e, err := b.buildOrderKey(item.Expr, orderBuild, projExprs, projNames)
			if err != nil {
				return nil, nil, err
			}
			idx := -1
			for i, pe := range projExprs {
				if pe.String() == e.String() {
					idx = i
					break
				}
			}
			if idx < 0 {
				idx = len(projExprs)
				projExprs = append(projExprs, e)
				projNames = append(projNames, fmt.Sprintf("$order%d", hidden))
				hidden++
			}
			keys = append(keys, OrderKey{Col: idx, Desc: item.Desc})
		}
	}

	out := make(Schema, len(projExprs))
	for i := range projExprs {
		out[i] = Field{Name: projNames[i], T: projExprs[i].Type()}
	}
	var node Node = &Project{Input: projInput, Exprs: projExprs, Out: out}

	if len(keys) > 0 {
		node = &Sort{Input: node, Keys: keys}
	}
	if sel.Limit >= 0 {
		node = &Limit{Input: node, N: sel.Limit}
	}
	if hidden > 0 {
		// Drop the hidden order-key columns.
		visible := len(projExprs) - hidden
		exprs := make([]Expr, visible)
		outs := make(Schema, visible)
		for i := 0; i < visible; i++ {
			exprs[i] = &Col{Idx: i, Name: projNames[i], T: projExprs[i].Type()}
			outs[i] = Field{Name: projNames[i], T: projExprs[i].Type()}
		}
		node = &Project{Input: node, Exprs: exprs, Out: outs}
	}
	return node, outScope, nil
}

// buildFrom assembles the FROM list into a single input node plus the scope
// of visible columns. Multiple items become a MultiJoin for the optimizer.
func (b *Builder) buildFrom(refs []sqlparse.TableRef) (Node, *scope, error) {
	if len(refs) == 0 {
		return &OneRow{}, &scope{}, nil
	}
	var (
		nodes []Node
		sc    = &scope{}
	)
	seen := map[string]bool{}
	for _, ref := range refs {
		n, cols, err := b.buildFromItem(ref)
		if err != nil {
			return nil, nil, err
		}
		if seen[ref.Alias] {
			return nil, nil, fmt.Errorf("plan: duplicate table alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		nodes = append(nodes, n)
		sc.cols = append(sc.cols, cols...)
	}
	if len(nodes) == 1 {
		return nodes[0], sc, nil
	}
	out := make(Schema, len(sc.cols))
	for i, c := range sc.cols {
		out[i] = Field{Name: c.name, T: c.t}
	}
	return &MultiJoin{Inputs: nodes, Out: out}, sc, nil
}

func (b *Builder) buildFromItem(ref sqlparse.TableRef) (Node, []scopeCol, error) {
	if ref.Subquery != nil {
		n, sub, err := b.buildSelect(ref.Subquery)
		if err != nil {
			return nil, nil, err
		}
		cols := make([]scopeCol, len(sub.cols))
		for i, c := range sub.cols {
			cols[i] = scopeCol{alias: ref.Alias, name: c.name, t: c.t}
		}
		return n, cols, nil
	}
	// A view?
	if v, ok := b.cat.View(ref.Table); ok {
		n, sub, err := b.buildSelect(v.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: expanding view %q: %w", v.Name, err)
		}
		if len(v.Cols) > 0 && len(v.Cols) != len(sub.cols) {
			return nil, nil, fmt.Errorf("plan: view %q declares %d columns but its query produces %d",
				v.Name, len(v.Cols), len(sub.cols))
		}
		cols := make([]scopeCol, len(sub.cols))
		for i, c := range sub.cols {
			name := c.name
			if len(v.Cols) > 0 {
				name = v.Cols[i]
			}
			cols[i] = scopeCol{alias: ref.Alias, name: name, t: c.t}
		}
		return n, cols, nil
	}
	meta, ok := b.cat.Table(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("plan: unknown table or view %q", ref.Table)
	}
	out := make(Schema, meta.Schema.Arity())
	cols := make([]scopeCol, meta.Schema.Arity())
	for i, c := range meta.Schema.Cols {
		out[i] = Field{Name: c.Name, T: c.Type}
		cols[i] = scopeCol{alias: ref.Alias, name: c.Name, t: c.Type}
	}
	return &Scan{Table: meta, Alias: ref.Alias, Out: out}, cols, nil
}

// BuildValueExpr compiles an expression with no column references (INSERT
// ... VALUES literals and constant expressions).
func (b *Builder) BuildValueExpr(e sqlparse.Expr) (Expr, error) {
	return b.buildScalar(e, &scope{})
}

// buildOrderKey compiles one ORDER BY key. A bare integer literal k refers
// to output column k (1-based); an unqualified name matching exactly one
// output alias refers to that column; anything else is compiled in the
// query's projection environment.
func (b *Builder) buildOrderKey(e sqlparse.Expr, build func(sqlparse.Expr) (Expr, error), projExprs []Expr, projNames []string) (Expr, error) {
	if lit, ok := e.(*sqlparse.IntLit); ok {
		k := int(lit.V)
		if k < 1 || k > len(projExprs) {
			return nil, fmt.Errorf("plan: ORDER BY position %d out of range 1..%d", k, len(projExprs))
		}
		return projExprs[k-1], nil
	}
	if cr, ok := e.(*sqlparse.ColRef); ok && cr.Table == "" {
		match := -1
		for i, n := range projNames {
			if n == cr.Column {
				if match >= 0 {
					match = -2
					break
				}
				match = i
			}
		}
		if match >= 0 {
			return projExprs[match], nil
		}
	}
	return build(e)
}

// buildPlainItems compiles non-aggregating select items.
func (b *Builder) buildPlainItems(items []sqlparse.SelectItem, sc *scope) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	for i, item := range items {
		if item.Star {
			for idx, c := range sc.cols {
				exprs = append(exprs, &Col{Idx: idx, Name: c.name, T: c.t})
				names = append(names, c.name)
			}
			continue
		}
		e, err := b.buildScalar(item.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(item, i))
	}
	return exprs, names, nil
}

func itemName(item sqlparse.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparse.ColRef:
		return e.Column
	case *sqlparse.FuncCall:
		return e.Name
	}
	return fmt.Sprintf("col%d", i)
}

// buildScalar compiles an expression with no aggregates allowed.
func (b *Builder) buildScalar(e sqlparse.Expr, sc *scope) (Expr, error) {
	return b.compile(e, sc, nil)
}

// compile is the one expression compiler. In a grouped query g is the
// grouping environment (nil otherwise), which adds three leaf rules: a
// subexpression matching a GROUP BY expression becomes its group column, an
// aggregate call becomes its aggregate column, and any other column
// reference is an error, being neither grouped nor aggregated.
func (b *Builder) compile(e sqlparse.Expr, sc *scope, g *aggEnv) (Expr, error) {
	if g != nil {
		if idx, ok := g.keyIndex[sqlparse.ExprString(e)]; ok {
			return &Col{Idx: idx, Name: fmt.Sprintf("group%d", idx), T: g.keyTypes[idx]}, nil
		}
		switch x := e.(type) {
		case *sqlparse.FuncCall:
			if builtins.IsAggregate(x.Name) {
				return g.buildAggCall(x)
			}
		case *sqlparse.ColRef:
			return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate",
				qualified(x.Table, x.Column))
		}
	}
	switch x := e.(type) {
	case *sqlparse.ColRef:
		idx, t, err := sc.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return &Col{Idx: idx, Name: x.Column, T: t}, nil
	case *sqlparse.IntLit:
		return &Const{V: value.Int(x.V), T: types.TInt}, nil
	case *sqlparse.DoubleLit:
		return &Const{V: value.Double(x.V), T: types.TDouble}, nil
	case *sqlparse.StringLit:
		return &Const{V: value.String_(x.V), T: types.TString}, nil
	case *sqlparse.BoolLit:
		return &Const{V: value.Bool(x.V), T: types.TBool}, nil
	case *sqlparse.NullLit:
		return &Const{V: value.Null(), T: types.TAny}, nil
	case *sqlparse.UnaryExpr:
		inner, err := b.compile(x.E, sc, g)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			if inner.Type().Base != types.Bool {
				return nil, fmt.Errorf("plan: NOT over %s", inner.Type())
			}
			return &Not{E: inner}, nil
		}
		t := inner.Type()
		if !t.IsNumericScalar() && !t.IsLinAlg() {
			return nil, fmt.Errorf("plan: cannot negate %s", t)
		}
		if t.Base == types.LabeledScalar {
			t = types.TDouble
		}
		return &Neg{E: inner, T: t}, nil
	case *sqlparse.BinaryExpr:
		l, err := b.compile(x.L, sc, g)
		if err != nil {
			return nil, err
		}
		r, err := b.compile(x.R, sc, g)
		if err != nil {
			return nil, err
		}
		return buildBinary(x.Op, l, r)
	case *sqlparse.SubqueryExpr:
		sub, subScope, err := b.buildSelect(x.Query)
		if err != nil {
			return nil, fmt.Errorf("plan: scalar subquery: %w", err)
		}
		if len(subScope.cols) != 1 {
			return nil, fmt.Errorf("plan: scalar subquery must produce one column, got %d", len(subScope.cols))
		}
		return &ScalarSubquery{Plan: sub, T: subScope.cols[0].t}, nil
	case *sqlparse.FuncCall:
		if builtins.IsAggregate(x.Name) {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", strings.ToUpper(x.Name))
		}
		fn, ok := builtins.Lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown function %q", x.Name)
		}
		args := make([]Expr, len(x.Args))
		argTypes := make([]types.T, len(x.Args))
		for i, a := range x.Args {
			arg, err := b.compile(a, sc, g)
			if err != nil {
				return nil, err
			}
			args[i] = arg
			argTypes[i] = arg.Type()
		}
		res, _, err := fn.Sig.Unify(argTypes)
		if err != nil {
			return nil, fmt.Errorf("plan: %s%s: %w", x.Name, typeList(argTypes), err)
		}
		return &Call{Fn: fn, Args: args, T: res}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

func typeList(ts []types.T) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func buildBinary(op string, l, r Expr) (Expr, error) {
	switch op {
	case "+", "-", "*", "/":
		t, err := builtins.ArithType(op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, Kind: BinArith, L: l, R: r, T: t}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		t, err := builtins.CompareType(op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, Kind: BinCompare, L: l, R: r, T: t}, nil
	case "AND", "OR":
		if l.Type().Base != types.Bool || r.Type().Base != types.Bool {
			return nil, fmt.Errorf("plan: %s over %s and %s", op, l.Type(), r.Type())
		}
		return &Binary{Op: op, Kind: BinLogic, L: l, R: r, T: types.TBool}, nil
	}
	return nil, fmt.Errorf("plan: unknown operator %q", op)
}

func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlparse.Expr{e}
}

func containsAggregate(e sqlparse.Expr) bool {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if builtins.IsAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *sqlparse.BinaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *sqlparse.UnaryExpr:
		return containsAggregate(x.E)
	}
	return false
}

// OneRow produces a single empty row; it is the input for SELECT without
// FROM.
type OneRow struct{}

// Schema implements Node.
func (*OneRow) Schema() Schema { return Schema{} }

// Children implements Node.
func (*OneRow) Children() []Node { return nil }
