package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// approvedEpsilonFuncs are functions allowed to compare floats exactly:
// the epsilon helper itself, which needs a bit-exact shortcut for
// infinities and signed zeros.
var approvedEpsilonFuncs = map[string]bool{
	"pdr/internal/geom.ApproxEq": true,
}

// AnalyzerFloatEq flags == and != between non-constant floating-point
// expressions. Density thresholds and half-open rectangle boundaries are
// accumulated through repeated arithmetic, so exact equality silently
// corrupts boundary-inclusion decisions; use geom.ApproxEq or restructure.
// Comparisons where either operand is an untyped or declared constant are
// allowed: `x == 0` is the idiomatic "field unset / sentinel" test and
// changing it to an epsilon test would alter semantics.
var AnalyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flags exact ==/!= between non-constant float expressions",
	Run:  runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && approvedEpsilonFuncs[p.Path+"."+fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloat(p.TypeOf(be.X)) || !isFloat(p.TypeOf(be.Y)) {
					return true
				}
				if isConstExpr(p, be.X) || isConstExpr(p, be.Y) {
					return true
				}
				p.Reportf(be.OpPos, "exact float comparison (%s); use geom.ApproxEq or compare against a constant sentinel", be.Op)
				return true
			})
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
