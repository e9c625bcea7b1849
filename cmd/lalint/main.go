// Command lalint is the project's static-analysis gate: a type-aware
// (go/parser + go/types, dependency-light — no go/packages) analysis suite
// over the module, with project-specific analyzers for error handling, the
// panic policy, hot-path copies and goroutine confinement.
//
// Usage:
//
//	go run ./cmd/lalint ./...                  # whole module
//	go run ./cmd/lalint ./internal/...         # one subtree
//	go run ./cmd/lalint -checker bigcopy ./... # one analyzer
//	go run ./cmd/lalint -json ./...            # machine-readable output
//
// Findings print as "file:line: [analyzer] message" (or a JSON array under
// -json) and make the exit status non-zero: 1 for findings, 2 for load or
// usage errors. There is no suppression comment: a finding is fixed, or the
// analyzer is changed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var opts options
	list := flag.Bool("analyzers", false, "list analyzers and exit")
	flag.BoolVar(&opts.json, "json", false, "emit findings as a JSON array")
	checker := flag.String("checker", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()
	if *list {
		for _, a := range Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checker != "" {
		var err error
		if opts.checkers, err = parseCheckers(*checker); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(opts, patterns))
}

// options are the driver knobs the flag set populates.
type options struct {
	json     bool
	checkers map[string]bool // nil = run all analyzers
}

// parseCheckers validates a -checker comma-list against the analyzer set.
func parseCheckers(list string) (map[string]bool, error) {
	checkers := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if analyzerNamed(name) == nil {
			return nil, fmt.Errorf("lalint: unknown checker %q (try -analyzers)", name)
		}
		checkers[name] = true
	}
	return checkers, nil
}

// run lints the patterns and prints the findings; it returns the process
// exit status (0 clean, 1 findings, 2 load error).
func run(opts options, patterns []string) int {
	diags, status := lint(opts, patterns)
	if opts.json {
		out, err := renderJSON(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lalint:", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	return status
}

// lint is the testable core of the driver: it loads every package the
// patterns expand to, runs the enabled analyzers, and returns root-relative
// findings plus the exit status.
func lint(opts options, patterns []string) ([]Diagnostic, int) {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return nil, 2
	}
	loader, err := NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return nil, 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return nil, 2
	}
	status := 0
	var diags []Diagnostic
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			status = 2
			continue
		}
		for _, d := range Analyze(p, opts.checkers) {
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			diags = append(diags, d)
			if status == 0 {
				status = 1
			}
		}
	}
	return diags, status
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lalint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
