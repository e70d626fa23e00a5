package lint

import (
	"go/ast"
)

// wallClockRestricted are the packages where simulation time (motion.Tick)
// must flow through parameters: the engine, the movement archive, and the
// index substrate. Reading the machine clock there either leaks
// nondeterminism into query answers or masks a missing tick parameter.
// Wall-clock *metering* (CPU cost measurement) goes through
// internal/stopwatch, which is the one approved wrapper.
var wallClockRestricted = map[string]bool{
	"pdr/internal/core":    true,
	"pdr/internal/history": true,
	"pdr/internal/tprtree": true,
}

// wallClockFuncs are the time-package functions that read the machine
// clock (or schedule against it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// AnalyzerWallClock forbids reading the machine clock in simulation-time
// packages.
var AnalyzerWallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now and friends in simulation-time packages (core, history, indexes)",
	Run:  runWallClock,
}

func runWallClock(p *Pass) {
	if !wallClockRestricted[p.Path] {
		return
	}
	p.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !wallClockFuncs[sel.Sel.Name] {
			return true
		}
		pn := p.PkgNameOf(sel.X)
		if pn == nil || pn.Imported().Path() != "time" {
			return true
		}
		p.Reportf(sel.Pos(), "time.%s in simulation-time package %s; simulation time must flow through motion.Tick parameters (use internal/stopwatch for cost metering)", sel.Sel.Name, p.Path)
		return true
	})
}
