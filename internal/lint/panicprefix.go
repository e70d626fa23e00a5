package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// panicPrefixPackages is the index substrate, whose corruption panics
// must identify their origin uniformly: "<pkg>: <detail>". Operators grep
// crash logs by that prefix, and core wraps index panics on that
// assumption.
var panicPrefixPackages = map[string]bool{
	"pdr/internal/tprtree": true,
}

// AnalyzerPanicPrefix checks that every panic message in an index package
// starts with the package name and ": ".
var AnalyzerPanicPrefix = &Analyzer{
	Name: "panicprefix",
	Doc:  "index-corruption panics must read \"<pkg>: ...\"",
	Run:  runPanicPrefix,
}

func runPanicPrefix(p *Pass) {
	if !panicPrefixPackages[p.Path] {
		return
	}
	want := p.Pkg.Name() + ": "
	p.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
			return true
		}
		lit, found := leadingStringLit(call.Args[0])
		if !found {
			// Message not statically determinable (error value, variable);
			// leave it to the humans.
			return true
		}
		if !strings.HasPrefix(lit, want) {
			p.Reportf(call.Pos(), "panic message %q must start with %q (uniform index-corruption prefix)", lit, want)
		}
		return true
	})
}

// leadingStringLit digs out the leftmost string literal of a panic
// argument: a plain literal, the left spine of a + concatenation, or the
// format string of a fmt.Sprintf call.
func leadingStringLit(e ast.Expr) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(v.Value)
			if err != nil {
				return "", false
			}
			return s, true
		case *ast.BinaryExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(v.Args) > 0 {
				e = v.Args[0]
				continue
			}
			return "", false
		default:
			return "", false
		}
	}
}
