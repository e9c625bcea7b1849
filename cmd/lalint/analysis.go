package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
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
	Run  func(p *Pkg, r *Reporter)
}

// Analyzers lists every check the driver runs, in output order.
var Analyzers = []*Analyzer{
	ErrcheckAnalyzer,
	PanicpolicyAnalyzer,
	BigcopyAnalyzer,
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

// Analyze runs the enabled analyzers (nil = all) over one loaded package and
// returns the sorted findings.
func Analyze(p *Pkg, enabled map[string]bool) []Diagnostic {
	r := &Reporter{pkg: p}
	for _, a := range Analyzers {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		r.analyzer = a.Name
		a.Run(p, r)
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

// Reporter collects one package's diagnostics, each tagged with the
// analyzer that is running.
type Reporter struct {
	pkg      *Pkg
	analyzer string
	diags    []Diagnostic
}

// Reportf records a finding for the current analyzer.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:      r.pkg.Fset.Position(pos),
		Analyzer: r.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}
