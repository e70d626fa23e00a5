package lint

// Machinery the flow-aware analyzers (deferunlock, noleak, poollife) share:
// the textual key a tracked value is named by, the one recognizer of method
// calls on sync types, the walk to a body's function literals, and the
// reporter of the replay pass. (deferunlock's and poollife's fact-set
// lattice, cfg.KeySets, sits beside cfg.Analysis.)
// Values are identified by the expression they are used through ("s.mu",
// "e.scratches"): intra-procedural, purely syntactic aliasing, which is
// exactly the discipline the tree follows — a mutex is locked and unlocked,
// a pool filled and drained, through one expression.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// syncCall is one method call on a trackable value of a sync type:
// s.mu.Lock(), e.scratches.Put(x), wg.Done().
type syncCall struct {
	typ    string // the sync type's name: "Mutex", "RWMutex", "Pool", ...
	method string // the method called: "Lock", "Put", ...
	key    string // exprKey of the receiver expression, e.g. "s.mu"
}

// syncCallOf recognizes call as method M called on an expression whose
// type, after one dereference (fields may hold *sync.Mutex), is sync.T, and
// whose receiver has an exprKey. Callers check T and M.
func syncCallOf(info *types.Info, call *ast.CallExpr) (syncCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return syncCall{}, false
	}
	named, ok := types.Unalias(derefType(info.TypeOf(sel.X))).(*types.Named)
	if !ok {
		return syncCall{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return syncCall{}, false
	}
	key := exprKey(sel.X)
	if key == "" {
		return syncCall{}, false
	}
	return syncCall{typ: obj.Name(), method: sel.Sel.Name, key: key}, true
}

// mutexOp is one Lock/Unlock-family call on a trackable mutex expression.
type mutexOp struct {
	key  string // exprKey of the mutex expression, e.g. "s.mu"
	name string // Lock, RLock, Unlock, RUnlock, TryLock, TryRLock
	pos  token.Pos
}

// mutexOpOf recognizes call as a Lock/RLock/Unlock/RUnlock/TryLock/TryRLock
// call on a sync.Mutex or sync.RWMutex.
func mutexOpOf(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	c, ok := syncCallOf(info, call)
	if !ok || (c.typ != "Mutex" && c.typ != "RWMutex") {
		return mutexOp{}, false
	}
	switch c.method {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return mutexOp{key: c.key, name: c.method, pos: call.Pos()}, true
	}
	return mutexOp{}, false
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// exprKey renders a trackable expression chain as a stable string:
// identifiers, field selections, parens, derefs, and constant-or-trackable
// index expressions. Untrackable shapes (call results, literals) yield "".
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.IndexExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		var idx string
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			idx = lit.Value
		} else {
			idx = exprKey(e.Index)
		}
		if idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	}
	return ""
}

// allFuncLits collects the function literals directly inside body (not
// nested in further literals): each runs as its own function, with its own
// obligations, and is analyzed on its own.
func allFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok {
			out = append(out, fl)
			return false
		}
		return true
	})
	return out
}

// reporter records one finding. The flow analyzers' step functions take
// nil during the fixed-point pass and a reporter during the replay.
type reporter func(pos token.Pos, format string, args ...any)

// onceReporter reports through p, dropping a repeat of one format at one
// position: the exit check visits every fact that reaches it, and several
// can blame one site.
func onceReporter(p *Pass) reporter {
	reported := make(map[string]bool)
	return func(pos token.Pos, format string, args ...any) {
		key := p.Fset.Position(pos).String() + format
		if reported[key] {
			return
		}
		reported[key] = true
		p.Reportf(pos, format, args...)
	}
}
