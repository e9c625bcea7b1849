package sqlparse

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"relalg/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// accepted).
func Parse(src string) (Statement, error) {
	p, err := ParseOne(src)
	return p.Stmt, err
}

// ParseOne is Parse keeping the statement's text and tokens, for Key.
func ParseOne(src string) (Piece, error) {
	ps, err := Split(src)
	if err != nil {
		return Piece{}, err
	}
	if len(ps) != 1 {
		return Piece{}, fmt.Errorf("sql: expected exactly one statement, got %d", len(ps))
	}
	return ps[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	ps, err := Split(src)
	if err != nil {
		return nil, err
	}
	stmts := make([]Statement, len(ps))
	for i, p := range ps {
		stmts[i] = p.Stmt
	}
	return stmts, nil
}

// Piece is one statement of a script: its parse, and its text from its
// first token through its last (the terminating ';' excluded), which
// parses alone to the same statement.
type Piece struct {
	Stmt Statement
	Text string
	toks []token // the statement's tokens, without the terminating ';'
}

// Split parses a semicolon-separated script into its statements. If any
// statement fails to parse, it returns the error and no statement.
func Split(src string) ([]Piece, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Piece
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tokEOF {
			return out, nil
		}
		start := p.i
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		first, last := toks[start], toks[p.i-1]
		out = append(out, Piece{Stmt: s, Text: src[first.pos : last.pos+len(last.raw)], toks: toks[start:p.i]})
		if !p.acceptOp(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input after statement")
		}
	}
}

// Key is the statement's plan-cache key: each token's kind and canonical
// text, length-prefixed. The parser reads nothing else of a token (its raw
// text only names it in errors), so equal keys parse to the same statement,
// and statements that differ only in keyword or identifier case, whitespace
// or comments share a key.
func (p Piece) Key() string {
	b := make([]byte, 0, len(p.Text)+2*len(p.toks))
	for _, t := range p.toks {
		b = binary.AppendUvarint(append(b, byte(t.kind)), uint64(len(t.text)))
		b = append(b, t.text...)
	}
	return string(b)
}

// Terminated reports whether src holds a ';' token: the prompt's sign that
// a statement is complete. A ';' inside a string literal or a comment is not
// a token.
func Terminated(src string) (bool, error) {
	toks, err := lexAll(src)
	return slices.ContainsFunc(toks, func(t token) bool { return t.kind == tokOp && t.text == ";" }), err
}

// ParseExpr parses a standalone expression; only tests call it.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected input after expression")
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	where := "end of input"
	if t.kind != tokEOF {
		where = fmt.Sprintf("%q", t.raw)
	}
	return fmt.Errorf("sql: line %d: %s (at %s)", t.line, fmt.Sprintf(format, args...), where)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword")
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "DROP":
		return p.parseDrop()
	case "EXPLAIN":
		p.advance()
		analyze := p.acceptKeyword("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	}
	return nil, p.errf("unsupported statement %s", t.text)
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("VIEW"):
		return p.parseCreateView()
	}
	return nil, p.errf("expected TABLE or VIEW after CREATE")
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateTableAs{Name: name, Query: q}, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ctype, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: cname, Type: ctype})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, Cols: cols}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("HASH"); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		found := false
		for _, c := range cols {
			if c.Name == col {
				found = true
			}
		}
		if !found {
			return nil, p.errf("partition column %q is not a column of the table", col)
		}
		ct.PartitionCol = col
	}
	return ct, nil
}

// parseType parses INTEGER | DOUBLE | STRING | BOOLEAN | LABELED_SCALAR |
// VECTOR[n] | VECTOR[] | MATRIX[r][c] with either dimension omitted.
func (p *parser) parseType() (types.T, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return types.T{}, p.errf("expected type name")
	}
	p.advance()
	switch t.text {
	case "INTEGER", "INT":
		return types.TInt, nil
	case "DOUBLE":
		return types.TDouble, nil
	case "STRING", "VARCHAR":
		// VARCHAR(n) tolerated; length ignored.
		if p.acceptOp("(") {
			if p.peek().kind == tokInt {
				p.advance()
			}
			if err := p.expectOp(")"); err != nil {
				return types.T{}, err
			}
		}
		return types.TString, nil
	case "BOOLEAN":
		return types.TBool, nil
	case "LABELED_SCALAR":
		return types.TLabeledScalar, nil
	case "VECTOR":
		d, err := p.parseDim()
		if err != nil {
			return types.T{}, err
		}
		return types.TVector(d), nil
	case "MATRIX":
		r, err := p.parseDim()
		if err != nil {
			return types.T{}, err
		}
		c, err := p.parseDim()
		if err != nil {
			return types.T{}, err
		}
		return types.TMatrix(r, c), nil
	}
	return types.T{}, p.errf("unsupported type %s", t.text)
}

func (p *parser) parseDim() (types.Dim, error) {
	if err := p.expectOp("["); err != nil {
		return types.Dim{}, err
	}
	if p.acceptOp("]") {
		return types.UnknownDim, nil
	}
	t := p.peek()
	if t.kind != tokInt {
		return types.Dim{}, p.errf("expected dimension size or ]")
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return types.Dim{}, p.errf("invalid dimension %q", t.text)
	}
	if err := p.expectOp("]"); err != nil {
		return types.Dim{}, err
	}
	return types.KnownDim(n), nil
}

func (p *parser) parseCreateView() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Cols: cols, Query: q}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return &Insert{Table: name, Rows: rows}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	if !p.acceptKeyword("TABLE") && !p.acceptKeyword("VIEW") {
		return nil, p.errf("expected TABLE or VIEW after DROP")
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.peek().kind == tokKeyword && p.peek().text == "DISTINCT" {
		return nil, p.errf("SELECT DISTINCT is not supported; use GROUP BY")
	}
	sel := &Select{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errf("expected integer after LIMIT")
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); t.kind == tokIdent {
		// Bare alias: SELECT x.a pointid FROM ...
		p.advance()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.acceptOp("(") {
		q, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectOp(")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Subquery: q}
		p.acceptKeyword("AS")
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, fmt.Errorf("%w (subqueries in FROM require an alias)", err)
		}
		ref.Alias = a
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if t := p.peek(); t.kind == tokIdent {
		p.advance()
		ref.Alias = t.text
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((= | <> | < | <= | > | >=) add)?
//	add    := mul ((+ | -) mul)*
//	mul    := unary ((* | /) unary)*
//	unary  := - unary | primary
//	primary:= literal | func(args) | ident(.ident)? | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold into literals so -3 is an IntLit, not a UnaryExpr.
		switch lit := e.(type) {
		case *IntLit:
			return &IntLit{V: -lit.V}, nil
		case *DoubleLit:
			return &DoubleLit{V: -lit.V}, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal")
		}
		return &IntLit{V: v}, nil
	case tokDouble:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("invalid double literal")
		}
		return &DoubleLit{V: v}, nil
	case tokString:
		p.advance()
		return &StringLit{V: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return &BoolLit{V: true}, nil
		case "FALSE":
			p.advance()
			return &BoolLit{V: false}, nil
		case "NULL":
			p.advance()
			return &NullLit{}, nil
		}
		return nil, p.errf("unexpected keyword in expression")
	case tokOp:
		if t.text == "(" {
			p.advance()
			// A parenthesized scalar subquery?
			if nt := p.peek(); nt.kind == tokKeyword && nt.text == "SELECT" {
				q, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token in expression")
	case tokIdent:
		p.advance()
		name := t.text
		// Function call?
		if p.acceptOp("(") {
			call := &FuncCall{Name: strings.ToLower(name)}
			if p.acceptOp("*") {
				call.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptOp(")") {
				return call, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified column reference?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Column: col}, nil
		}
		return &ColRef{Column: name}, nil
	}
	return nil, p.errf("unexpected end of expression")
}
