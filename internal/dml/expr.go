package dml

import (
	"fmt"
	"strconv"
	"strings"
)

// expr is a parsed DML expression.
type expr interface{ dmlExpr() }

type numLit struct{ v float64 }
type varRef struct{ name string }
type unaryNeg struct{ e expr }
type binop struct {
	op   string // + - * / %*%
	l, r expr
}
type call struct {
	fn   string
	args []expr
}

func (numLit) dmlExpr()   {}
func (varRef) dmlExpr()   {}
func (unaryNeg) dmlExpr() {}
func (binop) dmlExpr()    {}
func (call) dmlExpr()     {}

// --- tokenizer -----------------------------------------------------------

type dmlToken struct {
	kind byte // 'n' number, 'i' ident, 'o' operator/punct, 0 EOF
	text string
}

func lex(src string) ([]dmlToken, error) {
	var toks []dmlToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '%':
			if strings.HasPrefix(src[i:], "%*%") {
				toks = append(toks, dmlToken{'o', "%*%"})
				i += 3
			} else {
				return nil, fmt.Errorf("unexpected %% (matrix multiply is %%*%%)")
			}
		case strings.ContainsRune("+-*/(),", rune(c)):
			toks = append(toks, dmlToken{'o', string(c)})
			i++
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, dmlToken{'n', src[i:j]})
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' ||
				src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, dmlToken{'i', strings.ToLower(src[i:j])})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", string(c))
		}
	}
	return append(toks, dmlToken{0, ""}), nil
}

// --- parser ---------------------------------------------------------------

type dmlParser struct {
	toks []dmlToken
	i    int
}

func parse(src string) (expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &dmlParser{toks: toks}
	e, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != 0 {
		return nil, fmt.Errorf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

func (p *dmlParser) peek() dmlToken { return p.toks[p.i] }

func (p *dmlParser) accept(text string) bool {
	if t := p.peek(); t.kind == 'o' && t.text == text {
		p.i++
		return true
	}
	return false
}

func (p *dmlParser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binop{op: "+", l: l, r: r}
		case p.accept("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = binop{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *dmlParser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("%*%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binop{op: "%*%", l: l, r: r}
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binop{op: "*", l: l, r: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binop{op: "/", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *dmlParser) parseUnary() (expr, error) {
	if p.accept("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := e.(numLit); ok {
			return numLit{v: -n.v}, nil
		}
		return unaryNeg{e: e}, nil
	}
	return p.parsePrimary()
}

func (p *dmlParser) parsePrimary() (expr, error) {
	t := p.peek()
	switch t.kind {
	case 'n':
		p.i++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		return numLit{v: v}, nil
	case 'i':
		p.i++
		if !p.accept("(") {
			return varRef{name: t.text}, nil
		}
		c := call{fn: t.text}
		if p.accept(")") {
			return c, nil
		}
		for {
			a, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			c.args = append(c.args, a)
			if p.accept(",") {
				continue
			}
			break
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("expected ) after arguments of %s", c.fn)
		}
		return c, nil
	case 'o':
		if t.text == "(" {
			p.i++
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("expected )")
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("unexpected %q in expression", t.text)
}

// --- compiler ---------------------------------------------------------------

// compiler turns one DML expression into an extended-SQL scalar expression
// plus a FROM list: each variable occurrence becomes a one-row table scan.
type compiler struct {
	session *Session
	from    []string
	n       int
}

func (c *compiler) aliasFor(name string) (string, error) {
	if _, ok := c.session.vars[name]; !ok {
		return "", fmt.Errorf("unknown variable %q", name)
	}
	alias := fmt.Sprintf("d%d", c.n)
	c.n++
	c.from = append(c.from, tableOf(name)+" AS "+alias)
	return alias, nil
}

// compile returns the SQL expression text and its kind.
func (c *compiler) compile(e expr) (string, kind, error) {
	switch x := e.(type) {
	case numLit:
		return formatNum(x.v), kindScalar, nil
	case varRef:
		alias, err := c.aliasFor(x.name)
		if err != nil {
			return "", 0, err
		}
		return alias + ".val", c.session.vars[x.name], nil
	case unaryNeg:
		s, k, err := c.compile(x.e)
		if err != nil {
			return "", 0, err
		}
		return "(0 - " + s + ")", k, nil
	case binop:
		return c.compileBinop(x)
	case call:
		return c.compileCall(x)
	}
	return "", 0, fmt.Errorf("unsupported expression %T", e)
}

func (c *compiler) compileBinop(x binop) (string, kind, error) {
	ls, lk, err := c.compile(x.l)
	if err != nil {
		return "", 0, err
	}
	rs, rk, err := c.compile(x.r)
	if err != nil {
		return "", 0, err
	}
	if x.op == "%*%" {
		if lk != kindMatrix || rk != kindMatrix {
			return "", 0, fmt.Errorf("%%*%% requires two matrices")
		}
		return "matrix_multiply(" + ls + ", " + rs + ")", kindMatrix, nil
	}
	k := kindScalar
	if lk == kindMatrix || rk == kindMatrix {
		k = kindMatrix
	}
	return "(" + ls + " " + x.op + " " + rs + ")", k, nil
}

// dmlFn maps a DML function to its SQL template and kinds.
type dmlFn struct {
	arity   int
	argKind []kind
	result  kind
	render  func(args []string) string
}

var dmlFns = map[string]dmlFn{
	"t": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "trans_matrix(" + a[0] + ")" }},
	"inverse": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "matrix_inverse(" + a[0] + ")" }},
	"solve": {2, []kind{kindMatrix, kindMatrix}, kindMatrix,
		func(a []string) string {
			return "matrix_multiply(matrix_inverse(" + a[0] + "), " + a[1] + ")"
		}},
	// diag of a matrix -> its diagonal as a column matrix (SystemML style).
	"diag": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "col_matrix(diag(" + a[0] + "))" }},
	// diagm of a column matrix -> square matrix with it on the diagonal.
	"diagm": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "diag_matrix(get_col(" + a[0] + ", 0))" }},
	"rowsums": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "col_matrix(row_sums(" + a[0] + "))" }},
	"colsums": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "row_matrix(col_sums(" + a[0] + "))" }},
	"rowmins": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "col_matrix(row_mins(" + a[0] + "))" }},
	"rowmaxs": {1, []kind{kindMatrix}, kindMatrix,
		func(a []string) string { return "col_matrix(row_maxs(" + a[0] + "))" }},
	"sum": {1, []kind{kindMatrix}, kindScalar,
		func(a []string) string { return "sum_matrix(" + a[0] + ")" }},
	"trace": {1, []kind{kindMatrix}, kindScalar,
		func(a []string) string { return "trace(" + a[0] + ")" }},
	"nrow": {1, []kind{kindMatrix}, kindScalar,
		func(a []string) string { return "matrix_rows(" + a[0] + ")" }},
	"ncol": {1, []kind{kindMatrix}, kindScalar,
		func(a []string) string { return "matrix_cols(" + a[0] + ")" }},
	"identity": {1, []kind{kindScalar}, kindMatrix,
		func(a []string) string { return "identity_matrix(" + a[0] + ")" }},
	"zeros": {2, []kind{kindScalar, kindScalar}, kindMatrix,
		func(a []string) string { return "zeros_matrix(" + a[0] + ", " + a[1] + ")" }},
}

func (c *compiler) compileCall(x call) (string, kind, error) {
	fn, ok := dmlFns[x.fn]
	if !ok {
		return "", 0, fmt.Errorf("unknown function %q", x.fn)
	}
	if len(x.args) != fn.arity {
		return "", 0, fmt.Errorf("%s takes %d argument(s), got %d", x.fn, fn.arity, len(x.args))
	}
	args := make([]string, len(x.args))
	for i, a := range x.args {
		s, k, err := c.compile(a)
		if err != nil {
			return "", 0, err
		}
		if k != fn.argKind[i] {
			return "", 0, fmt.Errorf("%s argument %d: wrong kind", x.fn, i+1)
		}
		args[i] = s
	}
	return fn.render(args), fn.result, nil
}

// formatNum renders integers without a decimal point so they parse as SQL
// INTEGER literals (identity(3), zeros(2, 2)).
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
