package lint

import (
	"go/ast"
	"go/token"

	"pdr/internal/lint/cfg"
)

// AnalyzerDeferUnlock verifies release discipline for every mutex a function
// locks: a Lock/RLock must be released on every panic-free path out of the
// function, either by a deferred unlock or by an explicit unlock on each
// path, with the *matching* method (Unlock for Lock, RUnlock for RLock).
// It also reports definite double unlocks (an Unlock every path has already
// released) and a deferred unlock that re-releases a mutex a path already
// unlocked manually.
//
// The analysis is per-function over the CFG: the state tracks, per mutex
// key, the set of (level, lock position, pending defers) tuples reachable
// at a program point; the join is set union, so "some path leaks" is
// preserved through merges. Mutexes the function never locks are ignored —
// helpers that only unlock (their caller locked) are the *Locked
// convention's business, not this analyzer's. A function that returns
// holding a lock it took is a finding whatever its name. Functions using
// TryLock are skipped: the lock's success is a runtime condition the CFG
// cannot see. Paths ending in panic or process exit are exempt, matching the
// tree's convention that index corruption panics abandon the process.
var AnalyzerDeferUnlock = &Analyzer{
	Name: "deferunlock",
	Doc:  "flags lock paths that can exit without the matching unlock, and double unlocks",
	Run:  runDeferUnlock,
}

// holdFact is one reachable configuration of one mutex: how it is held,
// where it was locked, and which deferred releases are pending. Values are
// comparable, so a set of them is a map key set.
type holdFact struct {
	// level: 2 write-locked, 1 read-locked, 0 released by this function,
	// -1 untouched-but-has-pending-defer (caller may hold it).
	level     int
	lockPos   token.Pos
	deferW    bool // a deferred Unlock is pending
	deferR    bool // a deferred RUnlock is pending
	deferWPos token.Pos
	deferRPos token.Pos
}

// holdState maps mutex key -> set of reachable hold configurations.
type holdState = cfg.KeySets[holdFact]

func runDeferUnlock(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUnlockPaths(p, fd.Body)
		}
	}
}

// checkUnlockPaths analyzes one function body (and, recursively, every
// function literal inside it — each runs as its own function with its own
// release obligations).
func checkUnlockPaths(p *Pass, body *ast.BlockStmt) {
	for _, fl := range allFuncLits(body) {
		checkUnlockPaths(p, fl.Body)
	}
	if usesTryLock(p, body) {
		return
	}
	g := cfg.New(body)
	report := onceReporter(p)
	step := func(n ast.Node, in holdState) holdState { return stepHoldState(p, n, in, nil) }
	res := cfg.Run(g, &cfg.Analysis[holdState]{
		Entry: holdState{},
		Join:  holdState.Join,
		Equal: holdState.Equal,
		Transfer: func(b *cfg.Block, in holdState) holdState {
			for _, n := range b.Nodes {
				in = step(n, in)
			}
			return in
		},
	})
	// Replay with reporting enabled: double/mismatched unlocks are judged
	// against the converged state before each node.
	res.WalkReached(step, func(n ast.Node, before holdState) {
		stepHoldState(p, n, before, report)
	})
	// Leak check at normal exit: a tuple still holding the lock with no
	// matching deferred release means some path leaks it.
	exit, ok := res.ExitFacts()
	if !ok {
		return
	}
	for key, set := range exit {
		for f := range set {
			switch {
			case f.level == 2 && !f.deferW:
				report(f.lockPos, "%s.Lock() is not released on every return path; add defer %s.Unlock() or unlock before each return", key, key)
			case f.level == 1 && !f.deferR:
				report(f.lockPos, "%s.RLock() is not released on every return path; add defer %s.RUnlock() or unlock before each return", key, key)
			case f.level == 0 && f.deferW:
				report(f.deferWPos, "deferred %s.Unlock() runs after a path already unlocked %s (double unlock at return)", key, key)
			case f.level == 0 && f.deferR:
				report(f.deferRPos, "deferred %s.RUnlock() runs after a path already released %s (double unlock at return)", key, key)
			}
		}
	}
}

// stepHoldState advances the hold state across one CFG node. When report is
// non-nil, definite double and mismatched unlocks are reported (the replay
// pass); the fixed-point pass passes nil.
func stepHoldState(p *Pass, n ast.Node, in holdState, report reporter) holdState {
	out := in
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			out = registerDefers(p, x, out.Clone())
			return false
		case *ast.CallExpr:
			op, ok := mutexOpOf(p.Info, x)
			if !ok {
				return true
			}
			out = applyHoldOp(out, op, report)
		}
		return true
	})
	return out
}

// applyHoldOp transitions every reachable tuple of the operated mutex.
func applyHoldOp(s holdState, op mutexOp, report reporter) holdState {
	out := s.Clone()
	set := out[op.key]
	switch op.name {
	case "Lock", "RLock":
		level := 2
		if op.name == "RLock" {
			level = 1
		}
		if len(set) == 0 {
			out[op.key] = map[holdFact]bool{{}: true} // first lock on every path here
		}
		out.Map(op.key, func(f holdFact) (holdFact, bool) {
			f.level = level
			f.lockPos = op.pos
			return f, true
		})
	case "Unlock", "RUnlock":
		if len(set) == 0 {
			// Never locked here: the caller's hold (the *Locked
			// convention); out of scope.
			return out
		}
		if report != nil {
			allReleased, allRead, allWrite := true, true, true
			for f := range set {
				if f.level != 0 {
					allReleased = false
				}
				if f.level != 1 {
					allRead = false
				}
				if f.level != 2 {
					allWrite = false
				}
			}
			switch {
			case allReleased:
				report(op.pos, "%s is already unlocked on every path reaching this %s (double unlock)", op.key, op.name)
			case op.name == "Unlock" && allRead:
				report(op.pos, "%s.Unlock() releases a read lock; use %s.RUnlock()", op.key, op.key)
			case op.name == "RUnlock" && allWrite:
				report(op.pos, "%s.RUnlock() releases a write lock; use %s.Unlock()", op.key, op.key)
			}
		}
		out.Map(op.key, func(f holdFact) (holdFact, bool) {
			if f.level > 0 || f.level == -1 {
				f.level = 0
			}
			return f, true
		})
	}
	return out
}

// registerDefers records the unlocks a defer statement schedules: a direct
// defer mu.Unlock(), or a deferred closure whose body unlocks.
func registerDefers(p *Pass, d *ast.DeferStmt, s holdState) holdState {
	mark := func(op mutexOp) {
		if len(s[op.key]) == 0 {
			s[op.key] = map[holdFact]bool{{level: -1}: true}
		}
		s.Map(op.key, func(f holdFact) (holdFact, bool) {
			switch op.name {
			case "Unlock":
				f.deferW = true
				f.deferWPos = op.pos
			case "RUnlock":
				f.deferR = true
				f.deferRPos = op.pos
			}
			return f, true
		})
	}
	if op, ok := mutexOpOf(p.Info, d.Call); ok {
		mark(op)
		return s
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			if inner, ok := x.(*ast.FuncLit); ok && inner != fl {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if op, ok := mutexOpOf(p.Info, call); ok {
					mark(op)
				}
			}
			return true
		})
	}
	return s
}

// usesTryLock reports whether body (excluding nested literals, which are
// analyzed separately) calls TryLock/TryRLock on any mutex.
func usesTryLock(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if op, ok := mutexOpOf(p.Info, call); ok && (op.name == "TryLock" || op.name == "TryRLock") {
				found = true
			}
		}
		return !found
	})
	return found
}
