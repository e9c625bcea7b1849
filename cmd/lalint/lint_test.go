package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// goldenCases maps each analyzer to its fixture packages. The directory
// layout places every fixture at an import path ending in a suffix the
// analyzer is scoped to (e.g. .../bad/internal/exec), so the packages are
// linted exactly like the real module packages. The findings of an
// analyzer's bad fixtures go to its golden file in the listed order. Cases
// marked exclusive additionally assert that the deliberately broken fixtures
// are flagged by the intended checker and by nothing else.
var goldenCases = []struct {
	analyzer  string
	bad       []string // directories relative to testdata/
	ok        string
	exclusive bool
}{
	{"errcheck", []string{"errcheck/bad/pkg"}, "errcheck/ok/pkg", false},
	{"panicpolicy", []string{"panicpolicy/bad/internal/opt"}, "panicpolicy/ok/internal/opt", false},
	{"bigcopy", []string{"bigcopy/bad/internal/exec"}, "bigcopy/ok/internal/exec", false},
	{"gocheck", []string{"gocheck/bad/internal/linalg", "gocheck/bad/internal/exec"}, "gocheck/ok/internal/linalg", true},
}

// loadFixture type-checks one testdata package at its natural import path.
func loadFixture(t *testing.T, rel string) *Pkg {
	t.Helper()
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", filepath.FromSlash(rel))
	path := loader.ModulePath + "/cmd/lalint/testdata/" + rel
	p, err := loader.LoadDirAs(dir, path)
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	return p
}

// render formats diagnostics with basenames so goldens are location-stable.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.analyzer, func(t *testing.T) {
			var diags []Diagnostic
			for _, bad := range c.bad {
				n := len(diags)
				for _, d := range Analyze(loadFixture(t, bad), nil) {
					if d.Analyzer == c.analyzer {
						diags = append(diags, d)
					} else if c.exclusive {
						t.Errorf("bad fixture %s flagged by %s, want only %s: %s", bad, d.Analyzer, c.analyzer, d)
					}
				}
				if len(diags) == n {
					t.Fatalf("bad fixture %s produced no %s findings", bad, c.analyzer)
				}
			}
			checkGolden(t, filepath.Join("testdata", c.analyzer, "golden.txt"), render(diags))
		})
	}
}

// checkGolden compares rendered findings with a golden file, or rewrites it
// under -update.
func checkGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestSuppressed checks every ok fixture is clean under the FULL analyzer
// set: the sanctioned idioms must not trade one finding for another.
func TestSuppressed(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.analyzer, func(t *testing.T) {
			if diags := Analyze(loadFixture(t, c.ok), nil); len(diags) != 0 {
				t.Errorf("ok fixture %s produced findings:\n%s", c.ok, render(diags))
			}
		})
	}
}

// TestCheckerFlag checks -checker style filtering: only the selected
// analyzers run.
func TestCheckerFlag(t *testing.T) {
	badBigcopy := "./cmd/lalint/testdata/bigcopy/bad/internal/exec"
	diags, status := lint(options{checkers: map[string]bool{"gocheck": true}}, []string{badBigcopy})
	if status != 0 || len(diags) != 0 {
		t.Errorf("filtering to gocheck on a bigcopy fixture: got %d findings, status %d; want clean", len(diags), status)
	}
	diags, status = lint(options{checkers: map[string]bool{"bigcopy": true}}, []string{badBigcopy})
	if status != 1 || len(diags) == 0 {
		t.Fatalf("filtering to bigcopy on its bad fixture: got %d findings, status %d; want findings, status 1", len(diags), status)
	}
	for _, d := range diags {
		if d.Analyzer != "bigcopy" {
			t.Errorf("filtered run emitted %s finding: %s", d.Analyzer, d)
		}
	}
}

// TestParseCheckers checks the -checker flag's name validation.
func TestParseCheckers(t *testing.T) {
	got, err := parseCheckers("gocheck, bigcopy")
	if err != nil || !got["gocheck"] || !got["bigcopy"] || len(got) != 2 {
		t.Errorf("parseCheckers(\"gocheck, bigcopy\") = %v, %v", got, err)
	}
	if _, err := parseCheckers("nosuchcheck"); err == nil {
		t.Error("parseCheckers accepted an unknown checker name")
	}
}

// TestJSONOutput checks the -json rendering: a valid array with the expected
// fields, and an empty (not null) array for a clean run.
func TestJSONOutput(t *testing.T) {
	diags, status := lint(options{}, []string{"./cmd/lalint/testdata/gocheck/bad/internal/linalg"})
	if status != 1 || len(diags) == 0 {
		t.Fatalf("bad fixture: %d findings, status %d", len(diags), status)
	}
	out, err := renderJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []diagJSON
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(decoded) != len(diags) {
		t.Fatalf("JSON has %d entries, want %d", len(decoded), len(diags))
	}
	d := decoded[0]
	if d.Analyzer != "gocheck" || d.File == "" || d.Line == 0 || d.Message == "" {
		t.Errorf("incomplete JSON entry: %+v", d)
	}
	empty, err := renderJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(empty)) != "[]" {
		t.Errorf("empty findings render as %q, want []", empty)
	}
}

// TestRepoClean is the self-hosting regression: the full analyzer suite over
// the whole module must be clean.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, status := lint(options{}, []string{"./..."})
	if status != 0 {
		t.Errorf("lalint ./... is not clean (status %d):\n%s", status, render(diags))
	}
}

// TestDriverExitCodes runs the real driver entry point: findings must make
// the exit status 1, a clean package 0.
func TestDriverExitCodes(t *testing.T) {
	if got := run(options{}, []string{"./cmd/lalint/testdata/errcheck/bad/pkg"}); got != 1 {
		t.Errorf("driver on bad fixture: exit %d, want 1", got)
	}
	if got := run(options{}, []string{"./cmd/lalint/testdata/errcheck/ok/pkg"}); got != 0 {
		t.Errorf("driver on ok fixture: exit %d, want 0", got)
	}
}
