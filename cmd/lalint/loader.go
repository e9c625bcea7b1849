package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Pkg is one parsed and type-checked package of the module.
type Pkg struct {
	Path  string // import path, e.g. relalg/internal/exec
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages without go/packages:
// module-internal imports resolve to directories under the module root,
// everything else (the standard library) goes through the source importer.
type Loader struct {
	ModulePath string
	Root       string
	Fset       *token.FileSet
	Sizes      types.Sizes

	fallback types.Importer
	pkgs     map[string]*Pkg
	loading  map[string]bool
}

// stdFset and stdImporter are shared by every Loader in the process, so the
// standard library is type-checked from source once, not once per loader
// (the tests build a loader per case). The importer is not safe for
// concurrent use; loaders never load concurrently.
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil)
)

// NewLoader builds a loader rooted at the directory containing go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lalint: cannot read go.mod: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("lalint: no module line in %s/go.mod", root)
	}
	return &Loader{
		ModulePath: mod,
		Root:       root,
		Fset:       stdFset,
		Sizes:      types.SizesFor("gc", "amd64"),
		fallback:   stdImporter,
		pkgs:       map[string]*Pkg{},
		loading:    map[string]bool{},
	}, nil
}

// Import implements types.Importer so the type-checker can resolve both
// module-internal and standard-library imports.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.fallback.Import(path)
}

// Load parses and type-checks the package at the given module import path.
func (l *Loader) Load(path string) (*Pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lalint: import cycle through %s", path)
	}
	dir := l.Root
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		dir = filepath.Join(l.Root, filepath.FromSlash(rest))
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p, err := l.LoadDirAs(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDirAs parses and type-checks the non-test Go files of one directory
// under an explicit import path (the hook the golden-file tests use to place
// testdata packages at analyzer-scoped paths).
func (l *Loader) LoadDirAs(dir, path string) (*Pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lalint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lalint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	cfg := types.Config{Importer: l, Sizes: l.Sizes}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lalint: type-checking %s: %w", path, err)
	}
	return &Pkg{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// Expand resolves command-line patterns ("./...", "./internal/...",
// "./cmd/lalint") to module import paths. Directories named testdata and
// hidden directories are skipped, as the go tool does.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] && dirHasGoFiles(dir) {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		// A missing directory must be a hard error, not an empty match: a
		// typo'd pattern in the CI gate would otherwise silently pass.
		if _, err := os.Stat(base); err != nil {
			return nil, fmt.Errorf("lalint: %s: %w", pat, err)
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func dirHasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
