package main

import (
	"go/ast"
	"go/types"
)

// bigcopyThreshold is the struct size, in bytes, beyond which by-value
// passing on a hot path is flagged (value.Value is 64 bytes and idiomatic;
// anything twice that is a real copy cost per row).
const bigcopyThreshold = 128

// BigcopyAnalyzer flags by-value passing and range-copying of large structs
// on the executor and builtin hot paths, where a copy happens once per row
// or per block.
var BigcopyAnalyzer = &Analyzer{
	Name: "bigcopy",
	Doc:  "flags by-value passing/range-copying of large structs on hot paths (internal/exec, internal/builtins)",
	Run:  runBigcopy,
}

// bigcopyScope lists the hot-path package suffixes.
var bigcopyScope = []string{
	"internal/exec",
	"internal/builtins",
}

func runBigcopy(p *Pkg, r *Reporter) {
	if !pathHasSuffix(p.Path, bigcopyScope...) {
		return
	}
	sizes := types.SizesFor("gc", "amd64")
	tooBig := func(t types.Type) (int64, bool) {
		switch t.Underlying().(type) {
		case *types.Struct, *types.Array:
			sz := sizes.Sizeof(t)
			return sz, sz > bigcopyThreshold
		}
		return 0, false
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				var fields []*ast.Field
				if x.Recv != nil {
					fields = append(fields, x.Recv.List...)
				}
				fields = append(fields, x.Type.Params.List...)
				for _, field := range fields {
					tv, ok := p.Info.Types[field.Type]
					if !ok {
						continue
					}
					if sz, big := tooBig(tv.Type); big {
						r.Reportf(field.Pos(), "%d-byte struct %s passed by value on a hot path; pass a pointer", sz, types.TypeString(tv.Type, types.RelativeTo(p.Types)))
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil {
					return true
				}
				id, ok := x.Value.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					return true
				}
				if sz, big := tooBig(obj.Type()); big {
					r.Reportf(x.Pos(), "range copies a %d-byte struct %s per element on a hot path; range over indexes", sz, types.TypeString(obj.Type(), types.RelativeTo(p.Types)))
				}
			}
			return true
		})
	}
}
