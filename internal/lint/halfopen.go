package lint

import (
	"go/ast"
	"go/types"
)

const geomPath = "pdr/internal/geom"

// AnalyzerHalfOpen flags composite-literal construction of geom.Rect
// outside package geom. Every Rect is the half-open product
// [MinX, MaxX) x [MinY, MaxY); raw literals scattered across packages are
// how min/max swaps and closed-boundary assumptions creep in. Build
// rectangles with geom.NewRect or geom.RectFromCenter, which carry the
// convention in one audited place.
var AnalyzerHalfOpen = &Analyzer{
	Name: "halfopen",
	Doc:  "flags geom.Rect composite literals outside package geom",
	Run:  runHalfOpen,
}

func runHalfOpen(p *Pass) {
	if p.Path == geomPath {
		return
	}
	p.Inspect(func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := p.TypeOf(cl)
		if t == nil {
			return true
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return true
		}
		obj := named.Obj()
		if obj.Name() == "Rect" && obj.Pkg() != nil && obj.Pkg().Path() == geomPath {
			p.Reportf(cl.Pos(), "geom.Rect literal outside package geom; use geom.NewRect (or RectFromCenter) to preserve half-open [min,max) semantics")
		}
		return true
	})
}
