package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// diagJSON is the machine-readable form emitted under -json.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// renderJSON marshals diagnostics as a JSON array (always an array, never
// null, so consumers can range over an empty result).
func renderJSON(diags []Diagnostic) ([]byte, error) {
	out := make([]diagJSON, len(diags))
	for i, d := range diags {
		out[i] = diagJSON{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// Analyzer is one project-specific check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Analyzers lists every check the driver runs, in output order.
var Analyzers = []*Analyzer{
	NodeterminismAnalyzer,
	LockcheckAnalyzer,
	ErrcheckAnalyzer,
	PanicpolicyAnalyzer,
	BigcopyAnalyzer,
	CommitcheckAnalyzer,
	AliascheckAnalyzer,
	GocheckAnalyzer,
}

// analyzerNamed returns the analyzer with the given name, or nil.
func analyzerNamed(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass is one analyzer's view of one package: the typed syntax, the
// program-wide cross-package facts, and the reporter findings flow through.
type Pass struct {
	Pkg  *Pkg
	Prog *Program
	R    *Reporter
}

// Reportf records a finding at pos unless a suppression covers it.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pass.R.Reportf(pos, format, args...)
}

// Program owns the cross-package state of one lint invocation: the typed
// loader and the effect facts (which functions transitively peek at the tuple
// budget) accumulated over every package the loader has type-checked, in
// dependency order. See facts.go.
type Program struct {
	loader *Loader
	facts  *Facts
	facted int // prefix of loader.Order already folded into facts
}

// NewProgram wraps a loader with empty fact state.
func NewProgram(l *Loader) *Program {
	return &Program{loader: l, facts: newFacts()}
}

// Analyze runs the enabled analyzers (nil = all) over one loaded package and
// returns the sorted findings. Cross-package facts are brought up to date
// first, so a checker sees the effects of every dependency the loader pulled
// in while type-checking p. A suppression that covered no finding is itself
// a finding, once every analyzer it names has run.
func (prog *Program) Analyze(p *Pkg, enabled map[string]bool) []Diagnostic {
	prog.ensureFacts()
	r := NewReporter(p)
	ran := func(name string) bool { return enabled == nil || enabled[name] }
	for _, a := range Analyzers {
		if !ran(a.Name) {
			continue
		}
		r.analyzer = a.Name
		a.Run(&Pass{Pkg: p, Prog: prog, R: r})
	}
	for _, ig := range r.directives {
		if ig.used || (ig.all && enabled != nil) {
			continue
		}
		stale := true
		for name := range ig.analyzers {
			stale = stale && ran(name)
		}
		if stale {
			r.diags = append(r.diags, Diagnostic{Pos: ig.pos, Analyzer: "lalint",
				Message: "lint:ignore directive suppresses no finding; remove it"})
		}
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return r.diags
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil with all=true means every analyzer
	all       bool
	pos       token.Position
	used      bool // it suppressed a finding
}

func (ig *ignoreDirective) matches(analyzer string) bool {
	return ig.all || ig.analyzers[analyzer]
}

// Reporter collects diagnostics for one package, honouring
// "//lint:ignore <analyzer>[,<analyzer>...] <reason>" suppressions. A
// directive applies to findings on its own line and on the line below it
// (so it works both trailing a statement and on the line above one).
type Reporter struct {
	pkg        *Pkg
	analyzer   string
	diags      []Diagnostic
	ignores    map[string]map[int][]*ignoreDirective // file -> line -> directives
	directives []*ignoreDirective
}

// NewReporter scans the package's comments for suppression directives.
func NewReporter(p *Pkg) *Reporter {
	r := &Reporter{pkg: p, ignores: map[string]map[int][]*ignoreDirective{}}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					r.diags = append(r.diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lalint",
						Message:  "malformed lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				ig := &ignoreDirective{pos: pos}
				r.directives = append(r.directives, ig)
				if fields[0] == "all" {
					ig.all = true
				} else {
					ig.analyzers = map[string]bool{}
					for _, a := range strings.Split(fields[0], ",") {
						ig.analyzers[a] = true
					}
				}
				byLine := r.ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					r.ignores[pos.Filename] = byLine
				}
				end := p.Fset.Position(c.End())
				byLine[pos.Line] = append(byLine[pos.Line], ig)
				byLine[end.Line+1] = append(byLine[end.Line+1], ig)
			}
		}
	}
	return r
}

// Reportf records a finding for the current analyzer unless a matching
// suppression covers its line.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	position := r.pkg.Fset.Position(pos)
	for _, ig := range r.ignores[position.Filename][position.Line] {
		if ig.matches(r.analyzer) {
			ig.used = true
			return
		}
	}
	r.diags = append(r.diags, Diagnostic{
		Pos:      position,
		Analyzer: r.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}
