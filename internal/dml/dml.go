// Package dml implements the higher-level language the paper's introduction
// proposes as future work: "it would be possible to implement a math-like
// domain specific language (such as MATLAB or SystemML's [DML]) ... on top
// of our proposed extensions. That domain specific language ... could
// translate the computation to a database computation."
//
// This is a small SystemML-DML-flavoured matrix language. Every variable is
// a single-matrix (or scalar) table in the underlying extended-SQL engine;
// each assignment compiles to one CREATE TABLE ... AS SELECT over the
// linear-algebra built-ins, so the relational optimizer and distributed
// executor do all the work. Example:
//
//	G    = t(X) %*% X
//	beta = solve(G, t(X) %*% y)
//	print(beta)
//
// Supported grammar:
//
//	stmt   := ident = expr | print(expr)
//	expr   := term ((+|-) term)*
//	term   := factor ((*|/|%*%) factor)*     -- * and / element-wise
//	factor := -factor | primary
//	primary:= number | ident | (expr) | fn(expr {, expr})
//	fn     := t, inverse, solve, diag, diagm, rowsums, colsums,
//	          rowmins, rowmaxs, sum, trace, nrow, ncol, identity, zeros
package dml

import (
	"fmt"
	"strings"

	"relalg/internal/core"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// Session is one DML environment bound to a database. Matrix variables are
// stored as tables `dml_<name>(val MATRIX[][])`; scalars as
// `dml_<name>(val DOUBLE)`.
type Session struct {
	db      *core.Database
	vars    map[string]kind
	printed []string
}

type kind uint8

const (
	kindMatrix kind = iota
	kindScalar
)

// New creates a session over the database.
func New(db *core.Database) *Session {
	return &Session{db: db, vars: map[string]kind{}}
}

// tableOf is the backing table name of a DML variable.
func tableOf(name string) string { return "dml_" + strings.ToLower(name) }

// BindMatrix introduces a matrix variable from dense data.
func (s *Session) BindMatrix(name string, rows [][]float64) error {
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		return err
	}
	return s.bind(name, value.Matrix(m))
}

// BindVectorAsColumn introduces an n×1 matrix variable from a slice.
func (s *Session) BindVectorAsColumn(name string, data []float64) error {
	return s.bind(name, value.Matrix(linalg.VectorOf(data...).AsColMatrix()))
}

// BindScalar introduces a scalar variable.
func (s *Session) BindScalar(name string, v float64) error {
	name = strings.ToLower(name)
	tbl := tableOf(name)
	s.db.MustExec("DROP TABLE IF EXISTS " + tbl)
	if err := s.db.Exec("CREATE TABLE " + tbl + " (val DOUBLE)"); err != nil {
		return err
	}
	if err := s.db.LoadTable(tbl, []value.Row{{value.Double(v)}}); err != nil {
		return err
	}
	s.vars[name] = kindScalar
	return nil
}

func (s *Session) bind(name string, v value.Value) error {
	name = strings.ToLower(name)
	tbl := tableOf(name)
	s.db.MustExec("DROP TABLE IF EXISTS " + tbl)
	if err := s.db.Exec("CREATE TABLE " + tbl + " (val MATRIX[][])"); err != nil {
		return err
	}
	if err := s.db.LoadTable(tbl, []value.Row{{v}}); err != nil {
		return err
	}
	s.vars[name] = kindMatrix
	return nil
}

// Matrix reads a matrix variable back.
func (s *Session) Matrix(name string) (*linalg.Matrix, error) {
	name = strings.ToLower(name)
	if k, ok := s.vars[name]; !ok || k != kindMatrix {
		return nil, fmt.Errorf("dml: no matrix variable %q", name)
	}
	res, err := s.db.Query("SELECT val FROM " + tableOf(name))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("dml: variable %q has %d rows", name, len(res.Rows))
	}
	return res.Rows[0][0].Mat, nil
}

// Scalar reads a scalar variable back.
func (s *Session) Scalar(name string) (float64, error) {
	name = strings.ToLower(name)
	if k, ok := s.vars[name]; !ok || k != kindScalar {
		return 0, fmt.Errorf("dml: no scalar variable %q", name)
	}
	res, err := s.db.Query("SELECT val FROM " + tableOf(name))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, fmt.Errorf("dml: variable %q has %d rows", name, len(res.Rows))
	}
	return res.Rows[0][0].AsDouble()
}

// Printed returns the accumulated print() output lines.
func (s *Session) Printed() []string { return s.printed }

// Run executes a DML script: one statement per non-empty, non-comment line.
func (s *Session) Run(script string) error {
	for lineNo, raw := range strings.Split(script, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := s.runLine(line); err != nil {
			return fmt.Errorf("dml: line %d: %w", lineNo+1, err)
		}
	}
	return nil
}

func (s *Session) runLine(line string) error {
	if strings.HasPrefix(line, "print(") && strings.HasSuffix(line, ")") {
		return s.runPrint(line[len("print(") : len(line)-1])
	}
	eq := strings.Index(line, "=")
	if eq <= 0 {
		return fmt.Errorf("expected assignment or print(), got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	if !isIdent(name) {
		return fmt.Errorf("invalid variable name %q", name)
	}
	expr, err := parse(line[eq+1:])
	if err != nil {
		return err
	}
	return s.assign(strings.ToLower(name), expr)
}

func (s *Session) runPrint(src string) error {
	expr, err := parse(src)
	if err != nil {
		return err
	}
	const tmp = "print_tmp__"
	if err := s.assign(tmp, expr); err != nil {
		return err
	}
	res, err := s.db.Query("SELECT val FROM " + tableOf(tmp))
	if err != nil {
		return err
	}
	s.printed = append(s.printed, res.Rows[0][0].String())
	return nil
}

// assign compiles the expression to SQL and materializes it under name.
func (s *Session) assign(name string, e expr) error {
	c := &compiler{session: s}
	sqlExpr, k, err := c.compile(e)
	if err != nil {
		return err
	}
	tbl := tableOf(name)
	s.db.MustExec("DROP TABLE IF EXISTS " + tbl)
	query := "CREATE TABLE " + tbl + " AS SELECT " + sqlExpr + " AS val"
	if len(c.from) > 0 {
		query += " FROM " + strings.Join(c.from, ", ")
	}
	if err := s.db.Exec(query); err != nil {
		return err
	}
	s.vars[name] = k
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
