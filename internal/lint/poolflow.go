package lint

// Shared sync.Pool machinery for the pooled-lifetime analyzer (poollife):
// recognizing Get/Put operations, and the module-wide interprocedural
// summaries that say which functions release a pooled argument back to a
// pool ("releasers" — releaseIntervalScratch, FilterResult.Release) and
// which functions hand a pool-obtained value to their caller ("providers" —
// Histogram.Filter, and core's filterLocked that returns its result). The
// summaries are computed once per Run
// over every loaded package (Analyzer.Prepare), so obligations follow
// values across package boundaries: core acquiring from a dh provider is
// released by calling a dh method.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// isSyncPool reports whether t (after one deref) is sync.Pool.
func isSyncPool(t types.Type) bool {
	named, ok := types.Unalias(derefType(t)).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// poolCallOf recognizes call as pool.Get() or pool.Put(x) on a trackable
// sync.Pool expression, returning the pool's key and the method name.
func poolCallOf(info *types.Info, call *ast.CallExpr) (poolKey, name string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Get", "Put":
	default:
		return "", "", false
	}
	if !isSyncPool(info.TypeOf(sel.X)) {
		return "", "", false
	}
	key := exprKey(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, sel.Sel.Name, true
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

// staticCallee resolves a call to the *types.Func it invokes: package-level
// functions, methods on concrete receivers, and interface methods (the
// caller distinguishes the latter via types.Func.Type().(*types.Signature)
// receivers or isInterfaceRecv). Calls through func-typed values return nil.
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

// isInterfaceMethod reports whether fn is declared on an interface type, so
// its concrete body (and pool behavior) is unknowable statically.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

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

// summaryDecl is one function body with the package context to resolve it.
type summaryDecl struct {
	fd   *ast.FuncDecl
	obj  *types.Func
	info *types.Info
}

// buildPoolSummary computes releaser and provider sets to a fixed point
// over every loaded package: a releaser may delegate to another releaser
// (Release -> pool.Put), a provider may return another provider's result
// (Filter -> filterCounts -> pool.Get).
func buildPoolSummary(pkgs []*Package) *poolSummary {
	sum := &poolSummary{
		releasers: make(map[*types.Func]map[int]bool),
		providers: make(map[*types.Func]map[int]bool),
	}
	var decls []summaryDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				decls = append(decls, summaryDecl{fd: fd, obj: obj, info: pkg.Info})
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

// paramIndices maps parameter (and receiver) names to their index in the
// releaser convention: receiver -1, parameters 0..n-1 in declaration order.
func paramIndices(fd *ast.FuncDecl) map[string]int {
	idx := make(map[string]int)
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		for _, n := range fd.Recv.List[0].Names {
			idx[n.Name] = -1
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, n := range field.Names {
				idx[n.Name] = i
				i++
			}
		}
	}
	return idx
}

// summarizeReleaser scans one body for "parameter handed back to a pool"
// shapes: pool.Put(p), a call to a known releaser with p at a releasing
// position, or a releaser method invoked on p. Reports whether the summary
// grew. Closure bodies are included: a deferred closure that Puts a
// parameter still releases it on the function's behalf.
func summarizeReleaser(d summaryDecl, sum *poolSummary) bool {
	params := paramIndices(d.fd)
	if len(params) == 0 {
		return false
	}
	grew := false
	record := func(idx int) {
		set := sum.releasers[d.obj]
		if set == nil {
			set = make(map[int]bool)
			sum.releasers[d.obj] = set
		}
		if !set[idx] {
			set[idx] = true
			grew = true
		}
	}
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, isPool := poolCallOf(d.info, call); isPool && name == "Put" && len(call.Args) == 1 {
			if idx, isParam := params[rootOfValue(call.Args[0])]; isParam {
				record(idx)
			}
			return true
		}
		callee := staticCallee(d.info, call)
		if callee == nil || callee == d.obj {
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
func summarizeProvider(d summaryDecl, sum *poolSummary) bool {
	pooled := pooledLocals(d.info, d.fd.Body, sum)
	grew := false
	record := func(idx int) {
		set := sum.providers[d.obj]
		if set == nil {
			set = make(map[int]bool)
			sum.providers[d.obj] = set
		}
		if !set[idx] {
			set[idx] = true
			grew = true
		}
	}
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
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
				if callee := staticCallee(d.info, call); callee != nil {
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
			if _, isGet := poolGetExpr(d.info, ast.Unparen(res)); isGet {
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
