package lint

// Shared lock-state machinery for the flow-aware concurrency analyzers
// (deferunlock, lockorder). Mutexes are identified by the textual
// key of the expression they are locked through ("s.mu", "p.mu"):
// intra-procedural, purely syntactic aliasing, which is exactly the
// discipline the tree follows — a mutex is locked and unlocked through one
// expression.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockState maps a mutex key to the lock level held on *every* path
// reaching a program point: 1 read-locked, 2 write-locked. Absent means not
// (provably) held. The join of two states is the pointwise minimum, so a
// lock held on only one branch is not held after the merge.
type lockState map[string]int

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLockStates(a, b lockState) lockState {
	out := make(lockState)
	for k, av := range a {
		if bv, ok := b[k]; ok {
			if bv < av {
				out[k] = bv
			} else {
				out[k] = av
			}
		}
	}
	return out
}

func equalLockStates(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || bv != av {
			return false
		}
	}
	return true
}

// mutexOp is one Lock/Unlock-family call on a trackable mutex expression.
type mutexOp struct {
	key  string // exprKey of the mutex expression, e.g. "s.mu"
	name string // Lock, RLock, Unlock, RUnlock, TryLock, TryRLock
	pos  token.Pos
}

// mutexOpOf recognizes call as a mutex operation: a Lock/RLock/Unlock/
// RUnlock/TryLock/TryRLock method call whose receiver is a sync.Mutex or
// sync.RWMutex reachable through a trackable expression chain.
func mutexOpOf(p *Pass, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return mutexOp{}, false
	}
	if !isMutex(derefType(p.TypeOf(sel.X))) {
		return mutexOp{}, false
	}
	key := exprKey(sel.X)
	if key == "" {
		return mutexOp{}, false
	}
	return mutexOp{key: key, name: sel.Sel.Name, pos: call.Pos()}, true
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// derefType unwraps one level of pointer (fields may hold *sync.Mutex).
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

// apply advances the state across one mutex operation. The receiver is not
// mutated (predecessor facts are shared); a copy is returned.
func (s lockState) apply(op mutexOp) lockState {
	out := s.clone()
	switch op.name {
	case "Lock":
		out[op.key] = 2
	case "RLock":
		if out[op.key] < 1 {
			out[op.key] = 1
		}
	case "Unlock":
		delete(out, op.key)
	case "RUnlock":
		// Dropping a read hold; a write hold (mismatched RUnlock, which
		// deferunlock reports) is conservatively kept.
		if out[op.key] == 1 {
			delete(out, op.key)
		}
	}
	// TryLock/TryRLock succeed only conditionally; they never strengthen
	// the must-hold state.
	return out
}
