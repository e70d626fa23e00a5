package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"pdr/internal/lint/cfg"
)

// AnalyzerNoLeak requires every goroutine launched in production code to be
// joined — the worker-pool, singleflight, and service layers must never
// orphan a goroutine, because a leaked worker holds its pool slot (and its
// captured engine snapshot) forever.
//
// For each `go func(){...}()` statement the closure body is classified:
//
//   - WaitGroup-joined: the body calls wg.Done(). Then Done must be
//     reachable on every CFG path out of the closure (a deferred Done, or
//     an explicit call on each path); wg.Add must NOT be called inside the
//     goroutine (Add racing Wait is the classic countdown bug); and when wg
//     is a local of the spawning function, an Add call must exist outside
//     the goroutine.
//   - channel-joined: the body sends on a channel. The channel must be
//     buffered at its make site or received from by the spawning function
//     outside the goroutine — otherwise an abandoned receiver leaks the
//     sender forever.
//   - receiver goroutines (the body receives, ranges over a channel, closes
//     one, or waits on a WaitGroup) are accepted: their lifetime is bounded
//     by the channel they drain.
//   - anything else is reported: a fire-and-forget goroutine needs an
//     explicit, documented lint:ignore (e.g. a process-lifetime daemon).
//
// `go method()` statements (no literal) are skipped — the body is not
// visible intra-procedurally; the named function is analyzed on its own.
var AnalyzerNoLeak = &Analyzer{
	Name: "noleak",
	Doc:  "flags goroutines that are not joined via WaitGroup.Done on all paths or a drained channel",
	Run:  runNoLeak,
}

func runNoLeak(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			noLeakScanBody(p, fd.Body)
		}
	}
}

// noLeakScanBody checks the go statements spawned directly by body, then
// recurses into nested function literals (each is the spawning function of
// its own go statements).
func noLeakScanBody(p *Pass, body *ast.BlockStmt) {
	var gos []*ast.GoStmt
	var lits []*ast.FuncLit
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			gos = append(gos, x)
			return true // the literal inside is collected below
		case *ast.FuncLit:
			lits = append(lits, x)
			return false
		}
		return true
	})
	for _, g := range gos {
		if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
			checkGoroutine(p, body, g, fl)
		}
	}
	for _, fl := range lits {
		noLeakScanBody(p, fl.Body)
	}
}

func checkGoroutine(p *Pass, enclosing *ast.BlockStmt, g *ast.GoStmt, fl *ast.FuncLit) {
	doneKeys := waitGroupCalls(p, fl.Body, "Done")
	if len(doneKeys) > 0 {
		addsInside := waitGroupCalls(p, fl.Body, "Add")
		for key, pos := range addsInside {
			p.Reportf(pos, "%s.Add called inside the goroutine; Add must happen before the goroutine starts or Wait can return early", key)
		}
		for key, pos := range doneKeys {
			if !doneOnEveryPath(p, fl.Body, key) {
				p.Reportf(pos, "%s.Done() is not reached on every path out of the goroutine; defer it at the top", key)
			}
			if _, misplaced := addsInside[key]; misplaced {
				continue // already reported; the Add exists, just in the wrong place
			}
			if obj := localWaitGroup(p, enclosing, fl.Body, key); obj != nil {
				if !hasAddOutsideGoroutines(p, enclosing, key) {
					p.Reportf(g.Pos(), "goroutine calls %s.Done() but the spawning function never calls %s.Add", key, key)
				}
			}
		}
		return
	}
	sends := channelSends(p, fl.Body)
	if len(sends) > 0 {
		for key, pos := range sends {
			if chanBufferedAtMake(p, enclosing, key) || receivedOutsideGoroutines(p, enclosing, key) {
				continue
			}
			p.Reportf(pos, "goroutine sends on %s but the channel is unbuffered and the spawning function never receives from it; an abandoned receiver leaks this goroutine", key)
		}
		return
	}
	if isReceiverGoroutine(p, fl.Body) {
		return
	}
	p.Reportf(g.Pos(), "goroutine is not joined: no WaitGroup.Done, no channel send, no receive; add a join or lint:ignore noleak with the lifetime rationale")
}

// waitGroupCalls returns {wg key -> first position} of method calls on
// sync.WaitGroup values inside body, excluding nested literals except
// deferred closures (defer func(){ wg.Done() }() is the joining idiom).
func waitGroupCalls(p *Pass, body *ast.BlockStmt, method string) map[string]token.Pos {
	out := make(map[string]token.Pos)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
					walk(fl.Body)
					return false
				}
			case *ast.CallExpr:
				if key, ok := wgMethodCall(p, x, method); ok {
					if _, seen := out[key]; !seen {
						out[key] = x.Pos()
					}
				}
			}
			return true
		})
	}
	walk(body)
	return out
}

// wgMethodCall recognizes wg.<method>() on a sync.WaitGroup receiver with a
// trackable key.
func wgMethodCall(p *Pass, call *ast.CallExpr, method string) (string, bool) {
	c, ok := syncCallOf(p.Info, call)
	return c.key, ok && c.typ == "WaitGroup" && c.method == method
}

// doneOnEveryPath runs a must-analysis over the closure CFG: true iff
// wg.Done() for key has executed. A deferred Done (direct or inside a
// deferred closure) satisfies every path by construction.
func doneOnEveryPath(p *Pass, body *ast.BlockStmt, key string) bool {
	deferred := false
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		d, ok := x.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if k, ok := wgMethodCall(p, d.Call, "Done"); ok && k == key {
			deferred = true
		}
		if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(y ast.Node) bool {
				if _, ok := y.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := y.(*ast.CallExpr); ok {
					if k, ok := wgMethodCall(p, call, "Done"); ok && k == key {
						deferred = true
					}
				}
				return true
			})
		}
		return false
	})
	if deferred {
		return true
	}
	g := cfg.New(body)
	step := func(n ast.Node, in bool) bool {
		if in {
			return true
		}
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if k, ok := wgMethodCall(p, x, "Done"); ok && k == key {
					found = true
				}
			}
			return !found
		})
		return found
	}
	res := cfg.Run(g, &cfg.Analysis[bool]{
		Entry: false,
		Join:  func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
		Transfer: func(b *cfg.Block, in bool) bool {
			for _, n := range b.Nodes {
				in = step(n, in)
			}
			return in
		},
	})
	done, ok := res.ExitFacts()
	// A closure that never reaches normal exit (infinite loop) cannot be
	// said to call Done on every path.
	return ok && done
}

// localWaitGroup returns the object behind key's root identifier when it is
// declared inside the enclosing body (a function-local WaitGroup, whose Add
// discipline is fully visible) and outside the goroutine body; nil for
// fields, parameters, and captured outer variables.
func localWaitGroup(p *Pass, enclosing, goroutine *ast.BlockStmt, key string) types.Object {
	root := key
	for i := 0; i < len(root); i++ {
		if root[i] == '.' || root[i] == '[' {
			root = root[:i]
			break
		}
	}
	var obj types.Object
	ast.Inspect(enclosing, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || id.Name != root {
			return true
		}
		if o := p.Info.Defs[id]; o != nil {
			obj = o
		}
		return true
	})
	if obj == nil {
		return nil
	}
	if obj.Pos() < enclosing.Pos() || obj.Pos() > enclosing.End() {
		return nil
	}
	if obj.Pos() >= goroutine.Pos() && obj.Pos() <= goroutine.End() {
		return nil
	}
	return obj
}

// hasAddOutsideGoroutines reports whether the enclosing body calls key.Add
// outside any go statement's literal.
func hasAddOutsideGoroutines(p *Pass, enclosing *ast.BlockStmt, key string) bool {
	found := false
	ast.Inspect(enclosing, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			if _, ok := x.Call.Fun.(*ast.FuncLit); ok {
				return false
			}
		case *ast.CallExpr:
			if k, ok := wgMethodCall(p, x, "Add"); ok && k == key {
				found = true
			}
		}
		return !found
	})
	return found
}

// channelSends returns {channel key -> first position} of send statements
// inside body (excluding nested literals).
func channelSends(p *Pass, body *ast.BlockStmt) map[string]token.Pos {
	out := make(map[string]token.Pos)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if key := exprKey(x.Chan); key != "" {
				if _, seen := out[key]; !seen {
					out[key] = x.Pos()
				}
			}
		}
		return true
	})
	return out
}

// chanBufferedAtMake reports whether key's make site in the enclosing body
// has a capacity argument (make(chan T, n)).
func chanBufferedAtMake(p *Pass, enclosing *ast.BlockStmt, key string) bool {
	buffered := false
	ast.Inspect(enclosing, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			if exprKey(l) != key || i >= len(as.Rhs) {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 2 {
				buffered = true
			}
		}
		return true
	})
	return buffered
}

// receivedOutsideGoroutines reports whether the enclosing body receives
// from (or ranges over) key outside any goroutine literal.
func receivedOutsideGoroutines(p *Pass, enclosing *ast.BlockStmt, key string) bool {
	found := false
	ast.Inspect(enclosing, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			if _, ok := x.Call.Fun.(*ast.FuncLit); ok {
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && exprKey(x.X) == key {
				found = true
			}
		case *ast.RangeStmt:
			if exprKey(x.X) == key {
				found = true
			}
		}
		return !found
	})
	return found
}

// isReceiverGoroutine reports whether the closure body's role is to drain:
// it receives from or ranges over a channel, closes one, or waits on a
// WaitGroup — its lifetime is bounded by its input.
func isReceiverGoroutine(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(x.X); t != nil {
				if _, ok := types.Unalias(t.Underlying()).(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
			}
			if _, ok := wgMethodCall(p, x, "Wait"); ok {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}
