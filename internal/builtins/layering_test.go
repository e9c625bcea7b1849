package builtins

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineLayersKeepOutOfLA keeps the LA extension in this package and in
// linalg. The relational layers import no linalg, and they match the builtins
// and aggregates they treat specially by pointer (MatrixMultiply, Sum, ...),
// never by a name in a string, so renaming a builtin cannot silently switch a
// fusion or a rewrite off.
func TestEngineLayersKeepOutOfLA(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../exec", "../opt", "../plan", "../cluster"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"relalg/internal/linalg"` {
					t.Errorf("%s imports linalg", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
				}
				if registry[s] != nil || aggRegistry[s] != nil {
					t.Errorf("%s: string %q names a builtin", fset.Position(lit.Pos()), s)
				}
				return true
			})
		}
	}
}
