package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pdr/internal/lint/cfg"
)

// AnalyzerPoolLife verifies the ownership discipline of sync.Pool-backed
// scratch, the invariant the zero-allocation query kernels rest on. Per
// function it tracks every value the function becomes responsible for —
// a direct `x := pool.Get().(*T)` or a call to a provider such as
// Histogram.Filter — through the CFG and reports:
//
//   - a pooled value not released on every panic-free path out of the
//     function (must-reach, like deferunlock): Put/Release it before each
//     return or defer the release;
//   - use after release: any mention of the value once every path reaching
//     the point has returned it to its pool;
//   - double release: a Put/Release every reaching path has already done,
//     and a deferred release that re-runs after an explicit one;
//   - pointer-bearing fields not cleared before Put: the pool would pin the
//     last query's data live (`x.f = nil` / `clear(x.f)` before the Put);
//   - a pooled-scratch alias of a caller slice (`out := s[:0]` + append)
//     returned without a cap-clip, letting the caller's appends clobber
//     retained scratch (return `out[:len(out):len(out)]`).
//
// Release knowledge is interprocedural: Prepare builds module-wide releaser
// and provider summaries over the module's declarations (below), so core
// releasing a dh value by calling its dh method is understood across the
// package boundary.
// Ownership transfers end tracking: returning the value, storing it into a
// field, composite literal, or channel, capturing it in a function literal
// or goroutine, or passing it to a non-releasing callee all hand the
// obligation to someone this function can no longer see. Error-path
// correlation uses edge refinement: on the `err != nil` edge of
// `x, err := provider(...)` the pooled result is invalid and carries no
// obligation.
var AnalyzerPoolLife = &Analyzer{
	Name:    "poollife",
	Doc:     "tracks sync.Pool scratch lifetimes: leaked or double releases, use-after-Put, un-cleared pointer fields, un-clipped pooled returns",
	Run:     runPoolLife,
	Prepare: func(pkgs []*Package) any { return buildPoolSummary(pkgs) },
}

// poolFact is one reachable configuration of one tracked pooled value.
// Values are comparable, so a set of them is a map key set.
type poolFact struct {
	// live is true while the release obligation is pending; false once this
	// path returned the value to its pool.
	live   bool
	acqPos token.Pos
	// deferRel marks a pending deferred release (defer pool.Put(x) or
	// defer x.Release()).
	deferRel bool
	deferPos token.Pos
	// errKey names the error assigned alongside a provider's result; until
	// an err-nil check splits the paths, the obligation is conditional.
	errKey string
	// src says what produced the value ("e.scratches.Get", "Filter").
	src    string
	viaGet bool
}

// poolState maps tracked identifier -> set of reachable configurations.
type poolState = cfg.KeySets[poolFact]

// allReleasedSet reports whether every reachable configuration has released
// the value — the precondition for "use after release" and "double release".
func allReleasedSet(set map[poolFact]bool) bool {
	if len(set) == 0 {
		return false
	}
	for f := range set {
		if f.live {
			return false
		}
	}
	return true
}

func runPoolLife(p *Pass) {
	sum := p.Shared.(*poolSummary)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolLife(p, sum, fd.Body)
			checkNilBeforePut(p, fd)
			checkCapClip(p, fd)
		}
	}
}

// checkPoolLife runs the lifetime dataflow over one function body and,
// recursively, every function literal inside it (a literal acquires and
// releases on its own behalf).
func checkPoolLife(p *Pass, sum *poolSummary, body *ast.BlockStmt) {
	for _, fl := range allFuncLits(body) {
		checkPoolLife(p, sum, fl.Body)
	}
	g := cfg.New(body)
	report := onceReporter(p)
	step := func(n ast.Node, in poolState) poolState { return stepPoolState(p, sum, n, in, nil) }
	res := cfg.Run(g, &cfg.Analysis[poolState]{
		Entry: poolState{},
		Join:  poolState.Join,
		Equal: poolState.Equal,
		Transfer: func(b *cfg.Block, in poolState) poolState {
			for _, n := range b.Nodes {
				in = step(n, in)
			}
			return in
		},
		EdgeRefine: func(from, to *cfg.Block, out poolState) poolState {
			return refinePoolEdge(g, from, to, out)
		},
	})
	// Replay with reporting enabled: use-after-release and double release
	// are judged against the converged state before each node.
	res.WalkReached(step, func(n ast.Node, before poolState) {
		stepPoolState(p, sum, n, before, report)
	})
	// Leak check at normal exit. Panic paths are exempt, matching the
	// tree's convention that index corruption abandons the process.
	exit, ok := res.ExitFacts()
	if !ok {
		return
	}
	for key, set := range exit {
		for f := range set {
			switch {
			case f.live && !f.deferRel && f.viaGet:
				report(f.acqPos, "%s (from %s) is not returned to its pool on every path; Put it before each return or defer the Put", key, f.src)
			case f.live && !f.deferRel:
				report(f.acqPos, "%s (pooled result of %s) is not released on every path; call its release before each return or defer it", key, f.src)
			case !f.live && f.deferRel:
				report(f.deferPos, "deferred release of %s runs after a path already released it (double release at return)", key)
			}
		}
	}
}

// refinePoolEdge filters the fact flowing along one if-branch edge: on the
// `x == nil` edge a tracked x carries no obligation, and on the `err != nil`
// edge of a provider acquisition the pooled result is invalid by the
// provider contract (valid-or-error, never both).
func refinePoolEdge(g *cfg.Graph, from, to *cfg.Block, out poolState) poolState {
	ce, ok := g.Conds[from.Index]
	if !ok {
		return out
	}
	name, nilOnTrue, ok := nilCheckOf(ce.Cond)
	if !ok {
		return out
	}
	var isNil bool
	switch to.Index {
	case ce.Then:
		isNil = nilOnTrue
	case ce.Else:
		isNil = !nilOnTrue
	default:
		return out
	}
	refined := out.Clone()
	if isNil {
		// The tracked value itself is nil on this edge: no obligation.
		delete(refined, name)
	}
	for k := range refined {
		refined.Map(k, func(f poolFact) (poolFact, bool) {
			if f.errKey != name {
				return f, true
			}
			if !isNil {
				return f, false // err != nil: the pooled result is invalid
			}
			f.errKey = "" // err == nil: the obligation is unconditional
			return f, true
		})
	}
	return refined
}

// nilCheckOf recognizes `x == nil` / `x != nil` (either operand order) over
// a bare identifier, returning the identifier and whether the condition
// being true means x is nil.
func nilCheckOf(cond ast.Expr) (name string, nilOnTrue bool, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	other := x
	if id, isID := y.(*ast.Ident); isID && id.Name == "nil" {
		other = x
	} else if id, isID := x.(*ast.Ident); isID && id.Name == "nil" {
		other = y
	} else {
		return "", false, false
	}
	id, isID := other.(*ast.Ident)
	if !isID {
		return "", false, false
	}
	return id.Name, be.Op == token.EQL, true
}

// stepPoolState advances the pool state across one CFG node. When report is
// non-nil, use-after-release and double release are reported (the replay
// pass); the fixed-point pass passes nil.
func stepPoolState(p *Pass, sum *poolSummary, n ast.Node, in poolState, report reporter) poolState {
	out := in.Clone()
	switch s := n.(type) {
	case *ast.AssignStmt:
		stepPoolAssign(p, sum, s, out, report)
	case *ast.DeferStmt:
		stepPoolDefer(p, sum, s, out, report)
	case *ast.GoStmt:
		// The goroutine outlives this frame: anything it mentions escapes.
		walkPoolExpr(p, sum, s.Call, out, report, nil)
		dropMentionedKeys(s.Call, out)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			walkPoolExpr(p, sum, r, out, report, nil)
		}
		for _, r := range s.Results {
			// Returning the value transfers ownership to the caller (the
			// provider shape); the obligation is no longer this function's.
			if name := rootOfValue(r); name != "" {
				delete(out, name)
			}
		}
	case *ast.SendStmt:
		walkPoolExpr(p, sum, s.Chan, out, report, nil)
		walkPoolExpr(p, sum, s.Value, out, report, nil)
		if name := rootOfValue(s.Value); name != "" {
			escapePoolValue(out, name, s.Value.Pos(), report)
		}
	default:
		walkPoolExpr(p, sum, n, out, report, nil)
	}
	return out
}

// stepPoolAssign handles acquisitions, rebinds, and stores. Evaluation
// order: RHS uses/escapes, LHS base uses (x.f = v dereferences x), bare-LHS
// rebinds kill tracking, then new acquisitions begin it.
func stepPoolAssign(p *Pass, sum *poolSummary, as *ast.AssignStmt, st poolState, report reporter) {
	acqs := poolAcquisitions(p.Info, as, sum)
	sanct := make(map[token.Pos]bool)
	for _, r := range as.Rhs {
		walkPoolExpr(p, sum, r, st, report, sanct)
	}
	// A bare tracked value stored anywhere but a local rebind escapes:
	// res.field = x, arr[i] = x.
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Rhs {
			if _, isIdent := ast.Unparen(as.Lhs[i]).(*ast.Ident); isIdent {
				continue
			}
			if name := rootOfValue(as.Rhs[i]); name != "" {
				escapePoolValue(st, name, as.Rhs[i].Pos(), report)
			}
		}
	}
	for _, l := range as.Lhs {
		if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
			continue
		}
		walkPoolExpr(p, sum, l, st, report, sanct)
	}
	for _, l := range as.Lhs {
		if id, isID := ast.Unparen(l).(*ast.Ident); isID {
			delete(st, id.Name)
		}
	}
	for _, acq := range acqs {
		pos := as.Pos()
		for _, l := range as.Lhs {
			if id, isID := l.(*ast.Ident); isID && id.Name == acq.key {
				pos = id.Pos()
			}
		}
		st[acq.key] = map[poolFact]bool{{
			live:   true,
			acqPos: pos,
			errKey: acq.errKey,
			src:    acq.src,
			viaGet: acq.viaGet,
		}: true}
	}
}

// stepPoolDefer registers deferred releases (defer pool.Put(x), defer
// x.Release(), a deferred closure that releases) and conservatively drops
// tracked values a deferred call captures without releasing.
func stepPoolDefer(p *Pass, sum *poolSummary, d *ast.DeferStmt, st poolState, report reporter) {
	call := d.Call
	released := make(map[string]bool)
	if _, name, isPool := poolCallOf(p.Info, call); isPool {
		if name == "Put" && len(call.Args) == 1 {
			if root := rootOfValue(call.Args[0]); root != "" {
				released[root] = true
			}
		}
	} else if fl, isLit := call.Fun.(*ast.FuncLit); isLit {
		collectClosureReleases(p, sum, fl.Body, released)
		for key := range st {
			if !released[key] && mentionsName(fl, key) {
				delete(st, key)
			}
		}
	} else {
		callee := staticCallee(p.Info, call)
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if root := rootOfValue(sel.X); root != "" && isReleaseMethod(sum, callee, sel.Sel.Name) {
				released[root] = true
			}
		}
		for ai, arg := range call.Args {
			if root := rootOfValue(arg); root != "" && callee != nil && sum.releases(callee, calleeParamIndex(callee, ai)) {
				released[root] = true
			}
		}
		for key := range st {
			if !released[key] && mentionsName(call, key) {
				delete(st, key)
			}
		}
	}
	for key := range released {
		if _, tracked := st[key]; !tracked {
			continue
		}
		st.Map(key, func(f poolFact) (poolFact, bool) {
			f.deferRel = true
			f.deferPos = d.Pos()
			return f, true
		})
	}
}

// collectClosureReleases gathers the tracked-looking roots a closure body
// releases (pool.Put, releaser calls, Release/Close methods).
func collectClosureReleases(p *Pass, sum *poolSummary, body *ast.BlockStmt, released map[string]bool) {
	ast.Inspect(body, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := x.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if _, name, isPool := poolCallOf(p.Info, call); isPool {
			if name == "Put" && len(call.Args) == 1 {
				if root := rootOfValue(call.Args[0]); root != "" {
					released[root] = true
				}
			}
			return true
		}
		callee := staticCallee(p.Info, call)
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if root := rootOfValue(sel.X); root != "" && isReleaseMethod(sum, callee, sel.Sel.Name) {
				released[root] = true
			}
		}
		for ai, arg := range call.Args {
			if root := rootOfValue(arg); root != "" && callee != nil && sum.releases(callee, calleeParamIndex(callee, ai)) {
				released[root] = true
			}
		}
		return true
	})
}

// isReleaseMethod reports whether calling method name on a tracked value
// releases it: the interprocedural summary says the receiver reaches a
// pool.Put, or the method follows the Release/Close naming convention (the
// only signal available for interface-typed values).
func isReleaseMethod(sum *poolSummary, callee *types.Func, name string) bool {
	if sum.releases(callee, -1) {
		return true
	}
	return name == "Release" || name == "Close"
}

// walkPoolExpr is the generic transfer walk over one expression or simple
// statement: release operations transition state, non-releasing transfers
// escape, and (on replay) any mention of an all-paths-released value is a
// use-after-release. sanctioned suppresses the use check on identifiers
// that are themselves part of a release operation.
func walkPoolExpr(p *Pass, sum *poolSummary, n ast.Node, st poolState, report reporter, sanctioned map[token.Pos]bool) {
	if n == nil {
		return
	}
	if sanctioned == nil {
		sanctioned = make(map[token.Pos]bool)
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// The closure may run later: captured values escape.
			dropMentionedKeys(x, st)
			return false
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					v = kv.Value
				}
				if name := rootOfValue(v); name != "" {
					escapePoolValue(st, name, v.Pos(), report)
				}
			}
			return true
		case *ast.CallExpr:
			stepPoolCall(p, sum, x, st, report, sanctioned)
			return true
		case *ast.Ident:
			if sanctioned[x.Pos()] {
				return true
			}
			if set, tracked := st[x.Name]; tracked && allReleasedSet(set) && report != nil {
				report(x.Pos(), "%s is used after being returned to its pool", x.Name)
			}
		}
		return true
	})
}

// stepPoolCall applies one call's effect on the pool state: pool.Put and
// releaser calls release, non-releasing callees take ownership of bare
// tracked arguments, method calls on a tracked receiver borrow.
func stepPoolCall(p *Pass, sum *poolSummary, call *ast.CallExpr, st poolState, report reporter, sanctioned map[token.Pos]bool) {
	if _, name, isPool := poolCallOf(p.Info, call); isPool {
		if name == "Put" && len(call.Args) == 1 {
			if root := rootOfValue(call.Args[0]); root != "" {
				if _, tracked := st[root]; tracked {
					releasePoolKey(st, root, call.Pos(), report, "Put")
					sanctionIdents(call.Args[0], sanctioned)
				}
			}
		}
		return
	}
	callee := staticCallee(p.Info, call)
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if root := rootOfValue(sel.X); root != "" {
			if _, tracked := st[root]; tracked && isReleaseMethod(sum, callee, sel.Sel.Name) {
				releasePoolKey(st, root, call.Pos(), report, sel.Sel.Name+"()")
				sanctionIdents(sel.X, sanctioned)
			}
			// Otherwise a method call on the value borrows it; the use
			// check on the receiver identifier still applies.
		}
	}
	for ai, arg := range call.Args {
		root := rootOfValue(arg)
		if root == "" {
			continue
		}
		if _, tracked := st[root]; !tracked {
			continue
		}
		if callee != nil && sum.releases(callee, calleeParamIndex(callee, ai)) {
			releasePoolKey(st, root, arg.Pos(), report, callee.Name())
			sanctionIdents(arg, sanctioned)
			continue
		}
		// A non-releasing callee receives the value itself: ownership
		// escapes beyond this function's sight.
		escapePoolValue(st, root, arg.Pos(), report)
		sanctionIdents(arg, sanctioned)
	}
}

// releasePoolKey transitions every reachable configuration of key to
// released, reporting a double release when every path already had.
func releasePoolKey(st poolState, key string, pos token.Pos, report reporter, op string) {
	if report != nil && allReleasedSet(st[key]) {
		report(pos, "%s is already released on every path reaching this %s (double release)", key, op)
	}
	st.Map(key, func(f poolFact) (poolFact, bool) {
		f.live = false
		return f, true
	})
}

// escapePoolValue ends tracking of key because its value was handed to
// something this function cannot follow; a released value escaping is still
// a use-after-release.
func escapePoolValue(st poolState, key string, pos token.Pos, report reporter) {
	set, tracked := st[key]
	if !tracked {
		return
	}
	if allReleasedSet(set) && report != nil {
		report(pos, "%s is used after being returned to its pool", key)
	}
	delete(st, key)
}

// sanctionIdents marks the identifiers of a release operand so the generic
// use check does not flag the release itself.
func sanctionIdents(e ast.Expr, sanctioned map[token.Pos]bool) {
	ast.Inspect(e, func(x ast.Node) bool {
		if id, isID := x.(*ast.Ident); isID {
			sanctioned[id.Pos()] = true
		}
		return true
	})
}

// dropMentionedKeys deletes every tracked key that appears anywhere in n.
func dropMentionedKeys(n ast.Node, st poolState) {
	for key := range st {
		if mentionsName(n, key) {
			delete(st, key)
		}
	}
}

// mentionsName reports whether any identifier in n is spelled name.
func mentionsName(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, isID := x.(*ast.Ident); isID && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// poolCallOf recognizes call as pool.Get() or pool.Put(x) on a trackable
// sync.Pool expression, returning the pool's key and the method name.
func poolCallOf(info *types.Info, call *ast.CallExpr) (poolKey, name string, ok bool) {
	c, ok := syncCallOf(info, call)
	if !ok || c.typ != "Pool" || (c.method != "Get" && c.method != "Put") {
		return "", "", false
	}
	return c.key, c.method, true
}

// poolGetExpr unwraps e to a pool.Get() call, looking through a type
// assertion (`pool.Get().(*T)` is the acquisition idiom), and returns the
// pool's key.
func poolGetExpr(info *types.Info, e ast.Expr) (poolKey string, ok bool) {
	if ta, isTA := e.(*ast.TypeAssertExpr); isTA {
		e = ta.X
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	key, name, isPool := poolCallOf(info, call)
	if !isPool || name != "Get" {
		return "", false
	}
	return key, true
}

// ---- interprocedural summaries ------------------------------------------

// The module-wide summaries say which functions release a pooled argument
// back to a pool ("releasers" — core's frScratch.release,
// FilterResult.Release) and which hand a pool-obtained value to their caller
// ("providers" — Histogram.Filter, and core's filterLocked that returns its
// result). Prepare computes them once per Run over the module's function
// declarations, so obligations follow values across package boundaries:
// core acquiring from a dh provider is released by calling a dh method.

// poolSummary is the module-wide interprocedural pool knowledge.
type poolSummary struct {
	// releasers maps a function to the parameter indices it (transitively)
	// returns to a sync.Pool; index -1 is the method receiver.
	releasers map[*types.Func]map[int]bool
	// providers maps a function to the result indices that carry a
	// pool-obtained value the caller becomes responsible for.
	providers map[*types.Func]map[int]bool
}

func (s *poolSummary) releases(fn *types.Func, idx int) bool {
	return fn != nil && s.releasers[fn][idx]
}

// funcDecl is one declared function or method with a body: the unit the
// summaries are computed over.
type funcDecl struct {
	Func *types.Func
	Body *ast.BlockStmt
	Info *types.Info
}

// buildPoolSummary computes releaser and provider sets to a fixed point
// over every declared function of the module (a body's closures count as
// its own): a releaser may delegate to another releaser
// (Release -> pool.Put), a provider may return another provider's result
// (Filter -> filterCounts -> pool.Get).
func buildPoolSummary(pkgs []*Package) *poolSummary {
	sum := &poolSummary{
		releasers: make(map[*types.Func]map[int]bool),
		providers: make(map[*types.Func]map[int]bool),
	}
	var decls []funcDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls = append(decls, funcDecl{Func: fn, Body: fd.Body, Info: pkg.Info})
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if summarizeReleaser(d, sum) {
				changed = true
			}
			if summarizeProvider(d, sum) {
				changed = true
			}
		}
	}
	return sum
}

// staticCallee resolves a call to the *types.Func it names: package-level
// functions, methods on concrete receivers, and interface methods (which
// have no body to follow). Calls through func-typed values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// paramIndices maps parameter (and receiver) names to their index in the
// releaser convention: receiver -1, parameters 0..n-1 in declaration order.
func paramIndices(fn *types.Func) map[string]int {
	idx := make(map[string]int)
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && r.Name() != "" {
		idx[r.Name()] = -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if name := sig.Params().At(i).Name(); name != "" {
			idx[name] = i
		}
	}
	return idx
}

// summarizeReleaser scans one body for "parameter handed back to a pool"
// shapes: pool.Put(p), a call to a known releaser with p at a releasing
// position, or a releaser method invoked on p. Reports whether the summary
// grew. Closure bodies are included: a deferred closure that Puts a
// parameter still releases it on the function's behalf.
func summarizeReleaser(d funcDecl, sum *poolSummary) bool {
	params := paramIndices(d.Func)
	if len(params) == 0 {
		return false
	}
	grew := false
	record := func(idx int) {
		set := sum.releasers[d.Func]
		if set == nil {
			set = make(map[int]bool)
			sum.releasers[d.Func] = set
		}
		if !set[idx] {
			set[idx] = true
			grew = true
		}
	}
	info := d.Info
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, isPool := poolCallOf(info, call); isPool && name == "Put" && len(call.Args) == 1 {
			if idx, isParam := params[rootOfValue(call.Args[0])]; isParam {
				record(idx)
			}
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil || callee == d.Func {
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && sum.releases(callee, -1) {
			if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
				if idx, isParam := params[id.Name]; isParam {
					record(idx)
				}
			}
		}
		for ai, arg := range call.Args {
			id, isID := ast.Unparen(arg).(*ast.Ident)
			if !isID {
				continue
			}
			idx, isParam := params[id.Name]
			if !isParam {
				continue
			}
			if sum.releases(callee, calleeParamIndex(callee, ai)) {
				record(idx)
			}
		}
		return true
	})
	return grew
}

// calleeParamIndex clamps an argument position to the callee's parameter
// count, so variadic tails map onto the variadic parameter.
func calleeParamIndex(fn *types.Func, arg int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return arg
	}
	if n := sig.Params().Len(); arg >= n && n > 0 {
		return n - 1
	}
	return arg
}

// rootOfValue unwraps &x and (x) to the bare identifier name, or "".
func rootOfValue(e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// summarizeProvider scans one body for "pool-obtained value returned to the
// caller" shapes and records the pooled result indices. Locals are tracked
// flow-insensitively: x := pool.Get().(*T) or x, err := provider(...)
// makes x pooled; returning x (or a provider call directly) makes this
// function a provider at that result position.
func summarizeProvider(d funcDecl, sum *poolSummary) bool {
	info := d.Info
	pooled := pooledLocals(info, d.Body, sum)
	grew := false
	record := func(idx int) {
		set := sum.providers[d.Func]
		if set == nil {
			set = make(map[int]bool)
			sum.providers[d.Func] = set
		}
		if !set[idx] {
			set[idx] = true
			grew = true
		}
	}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if call, isCall := ast.Unparen(res).(*ast.CallExpr); isCall {
				// Pass-through: return provider(...) forwards the callee's
				// pooled result indices. A lone call may expand to several
				// results; alongside siblings it is single-valued and
				// forwards the callee's first result.
				if callee := staticCallee(info, call); callee != nil {
					if len(ret.Results) == 1 {
						for idx := range sum.providers[callee] {
							record(idx)
						}
					} else if sum.providers[callee][0] {
						record(i)
					}
				}
				continue
			}
			if _, isGet := poolGetExpr(info, ast.Unparen(res)); isGet {
				record(i)
				continue
			}
			if id, isID := ast.Unparen(res).(*ast.Ident); isID && pooled[id.Name] {
				record(i)
			}
		}
		return true
	})
	return grew
}

// pooledLocals collects, flow-insensitively, the local identifiers bound to
// a pool.Get result or a provider call's pooled result.
func pooledLocals(info *types.Info, body *ast.BlockStmt, sum *poolSummary) map[string]bool {
	pooled := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, acq := range poolAcquisitions(info, as, sum) {
			pooled[acq.key] = true
		}
		return true
	})
	return pooled
}

// poolAcquisition is one "local becomes responsible for a pooled value"
// event inside an assignment.
type poolAcquisition struct {
	key string // the acquiring identifier
	src string // what produced the value: "scratches.Get" or "Filter"
	// errKey names the error identifier assigned alongside a provider's
	// pooled result ("" when none): on the errKey != nil branch the pooled
	// value is invalid (nil) and carries no obligation.
	errKey string
	viaGet bool
}

// poolAcquisitions classifies an assignment's pool acquisitions: direct
// x := pool.Get().(*T) (per RHS position) and x, err := provider(...)
// (multi-value call).
func poolAcquisitions(info *types.Info, as *ast.AssignStmt, sum *poolSummary) []poolAcquisition {
	var out []poolAcquisition
	if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			callee := staticCallee(info, call)
			if callee != nil && len(sum.providers[callee]) > 0 {
				errKey := ""
				for i, l := range as.Lhs {
					if sum.providers[callee][i] {
						continue
					}
					if id, isID := l.(*ast.Ident); isID && id.Name != "_" && isErrorType(info.TypeOf(l)) {
						errKey = id.Name
					}
				}
				for i, l := range as.Lhs {
					if !sum.providers[callee][i] {
						continue
					}
					id, isID := l.(*ast.Ident)
					if !isID || id.Name == "_" {
						continue
					}
					out = append(out, poolAcquisition{key: id.Name, src: callee.Name(), errKey: errKey})
				}
				return out
			}
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, r := range as.Rhs {
			poolKey, isGet := poolGetExpr(info, ast.Unparen(r))
			if !isGet {
				continue
			}
			id, isID := as.Lhs[i].(*ast.Ident)
			if !isID || id.Name == "_" {
				continue
			}
			out = append(out, poolAcquisition{key: id.Name, src: poolKey + ".Get", viaGet: true})
		}
	}
	return out
}

// ---- nil-before-Put -------------------------------------------------------

// checkNilBeforePut verifies that a struct handed back to a sync.Pool has
// its pointer-bearing fields cleared first: a direct reference field must be
// nil'ed, and a slice of references must be clear()'ed (capacity reuse is
// the point of pooling, so truncation alone is fine for primitive slices
// but reference elements must be zeroed). The check is syntactic and
// per-function: clears through a single-level alias (`parts := x.parts;
// parts[i] = nil`), element stores, clear() calls, and a full `*x = T{}`
// reset all count.
func checkNilBeforePut(p *Pass, fd *ast.FuncDecl) {
	type putSite struct {
		call    *ast.CallExpr
		poolKey string
		arg     string
		typ     *types.Struct
	}
	var puts []putSite
	nilAssigns := make(map[string]bool) // "x.f" = nil or clear(x.f)
	elemClears := make(map[string]bool) // x.f[i] = nil
	fullReset := make(map[string]bool)  // *x = T{...}
	alias := make(map[string]string)    // local := x.f

	recordClear := func(m map[string]bool, key string) {
		m[key] = true
		// Resolve one alias level: clearing `parts` clears `x.parts`.
		if dot := strings.IndexByte(key, '.'); dot < 0 {
			if target, isAlias := alias[key]; isAlias {
				m[target] = true
			}
		} else {
			root := key[:dot]
			if target, isAlias := alias[root]; isAlias {
				m[target+key[dot:]] = true
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
				for i, l := range x.Lhs {
					id, isID := l.(*ast.Ident)
					if !isID {
						continue
					}
					if key := exprKey(x.Rhs[i]); key != "" && strings.Contains(key, ".") {
						alias[id.Name] = key
					}
				}
				return true
			}
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				r := ast.Unparen(x.Rhs[i])
				isNilRHS := false
				if id, isID := r.(*ast.Ident); isID && id.Name == "nil" {
					isNilRHS = true
				}
				switch lhs := ast.Unparen(l).(type) {
				case *ast.IndexExpr:
					if isNilRHS {
						if key := exprKey(lhs.X); key != "" {
							recordClear(elemClears, key)
						}
					}
				case *ast.StarExpr:
					if _, isLit := r.(*ast.CompositeLit); isLit {
						if id, isID := ast.Unparen(lhs.X).(*ast.Ident); isID {
							fullReset[id.Name] = true
						}
					}
				default:
					if isNilRHS {
						if key := exprKey(l); key != "" {
							recordClear(nilAssigns, key)
						}
					}
				}
			}
		case *ast.CallExpr:
			if id, isID := ast.Unparen(x.Fun).(*ast.Ident); isID && id.Name == "clear" && len(x.Args) == 1 {
				if key := exprKey(x.Args[0]); key != "" {
					recordClear(nilAssigns, key)
				}
				return true
			}
			_, name, isPool := poolCallOf(p.Info, x)
			if !isPool || name != "Put" || len(x.Args) != 1 {
				return true
			}
			root := rootOfValue(x.Args[0])
			if root == "" {
				return true
			}
			st := localStructType(p, x.Args[0])
			if st == nil {
				return true
			}
			poolKey := ""
			if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel {
				poolKey = exprKey(sel.X)
			}
			puts = append(puts, putSite{call: x, poolKey: poolKey, arg: root, typ: st})
		}
		return true
	})

	for _, put := range puts {
		if fullReset[put.arg] {
			continue
		}
		var missing []string
		for i := 0; i < put.typ.NumFields(); i++ {
			f := put.typ.Field(i)
			key := put.arg + "." + f.Name()
			if needsClear(f.Type()) && !nilAssigns[key] && !elemClears[key] {
				missing = append(missing, f.Name())
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		p.Reportf(put.call.Pos(), "%s is returned to pool %s with pointer-bearing field(s) %s still set; the pool pins their data live — clear them before Put",
			put.arg, put.poolKey, strings.Join(missing, ", "))
	}
}

// needsClear reports whether a pooled struct field must be cleared before
// Put: a direct reference (f = nil), a map holding references, or a slice of
// references (clear(f) zeroes elements, keeps capacity). Primitive fields
// and primitive-element slices/maps need nothing — retaining their backing
// storage is the point of pooling.
func needsClear(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return true
	case *types.Map:
		return refBearing(u.Key()) || refBearing(u.Elem())
	case *types.Slice:
		return refBearing(u.Elem())
	}
	return false
}

// refBearing reports whether values of t keep heap objects reachable
// (beyond their own storage): pointers, interfaces, slices, maps, chans,
// funcs, strings, and aggregates containing them.
func refBearing(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.String
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refBearing(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refBearing(u.Elem())
	}
	return false
}

// localStructType resolves e to the struct a pointer argument points at,
// provided the struct is named in the pass's own package (so field
// semantics are this package's business).
func localStructType(p *Pass, e ast.Expr) *types.Struct {
	t := p.TypeOf(e)
	if t == nil {
		return nil
	}
	ptr, isPtr := t.Underlying().(*types.Pointer)
	if !isPtr {
		return nil
	}
	named, isNamed := types.Unalias(ptr.Elem()).(*types.Named)
	if !isNamed || named.Obj().Pkg() != p.Pkg {
		return nil
	}
	st, isStruct := named.Underlying().(*types.Struct)
	if !isStruct {
		return nil
	}
	return st
}

// ---- cap-clip on pooled returns ------------------------------------------

// checkCapClip flags the shape where a function builds its result in the
// caller's (pooled) scratch — `out := s[:0]` over a slice parameter plus
// appends — and returns it without clipping capacity. The caller of such a
// provider can then append to the result and silently clobber the retained
// scratch. Returning out[:len(out):len(out)] forces those appends to
// reallocate.
func checkCapClip(p *Pass, fd *ast.FuncDecl) {
	params := make(map[string]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if _, isSlice := derefType(p.TypeOf(field.Type)).Underlying().(*types.Slice); !isSlice {
				continue
			}
			for _, n := range field.Names {
				params[n.Name] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	aliases := make(map[string]string) // out -> parameter it aliases
	appended := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, isID := l.(*ast.Ident)
			if !isID {
				continue
			}
			r := ast.Unparen(as.Rhs[i])
			if as.Tok == token.DEFINE {
				if se, isSlice := r.(*ast.SliceExpr); isSlice && !se.Slice3 && isZeroHigh(se) {
					if base, baseID := ast.Unparen(se.X).(*ast.Ident); baseID && params[base.Name] {
						aliases[id.Name] = base.Name
					}
				}
				continue
			}
			if call, isCall := r.(*ast.CallExpr); isCall {
				if fun, funID := ast.Unparen(call.Fun).(*ast.Ident); funID && fun.Name == "append" && len(call.Args) > 0 {
					if first, firstID := ast.Unparen(call.Args[0]).(*ast.Ident); firstID && first.Name == id.Name {
						appended[id.Name] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		for _, res := range ret.Results {
			id, isID := ast.Unparen(res).(*ast.Ident)
			if !isID {
				continue
			}
			param, isAlias := aliases[id.Name]
			if !isAlias || !appended[id.Name] {
				continue
			}
			p.Reportf(res.Pos(), "%s aliases pooled scratch %s and is returned with spare capacity; return %s[:len(%s):len(%s)] so caller appends reallocate instead of clobbering the scratch",
				id.Name, param, id.Name, id.Name, id.Name)
		}
		return true
	})
}

// isZeroHigh reports whether a slice expression truncates to length zero:
// s[:0] or s[0:0].
func isZeroHigh(se *ast.SliceExpr) bool {
	lit, isLit := ast.Unparen(se.High).(*ast.BasicLit)
	return isLit && lit.Kind == token.INT && lit.Value == "0"
}
