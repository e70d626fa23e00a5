package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"pdr/internal/lint/callgraph"
	"pdr/internal/lint/cfg"
)

// AnalyzerLockOrder proves the engine's deadlock-freedom argument statically.
// Mutex fields annotated with a `// pdr:lockrank <name> [rank]` comment form
// lock classes; the analyzer extends the must-held lock-set dataflow
// (lockState, below) across the call graph into a global acquisition-order
// graph — "while holding class A, class B is acquired" — and reports:
//
//   - rank violations: an edge from a higher to a lower (or equal) rank,
//     which is how every deadlock between ranked classes must start;
//   - acquisition cycles among unranked classes (A→B and B→A can deadlock
//     two goroutines even though each order is locally fine);
//   - a class acquired while already held: two instances of one class have
//     no defined order.
//
// The analysis is interprocedural: a callee's own acquisitions, transitively,
// count at the call, so an edge like service→engine is seen even though the
// engine lock is taken inside a callee. A function that returns holding a
// lock is deferunlock's finding, so no callee is modelled as leaving one
// held. Unannotated mutexes are invisible — the analyzer checks the declared
// protocol, it does not invent one.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "builds the pdr:lockrank acquisition-order graph: rank violations and cycles",
	Run:  runLockOrder,
	Prepare: func(pkgs []*Package, graph *callgraph.Graph) any {
		return prepareLockOrder(pkgs, graph)
	},
}

// LockRankDirective marks a mutex field as a named lock class.
const LockRankDirective = "pdr:lockrank"

// lockClass is one annotated mutex class. Fields sharing a directive name
// share the class (and must agree on rank).
type lockClass struct {
	name   string
	rank   int
	ranked bool
	pos    token.Pos
}

// lockOrderFinding is one pre-rendered diagnostic, attributed to a package.
type lockOrderFinding struct {
	pkg string
	pos token.Pos
	msg string
}

// lockOrderEdge records "while holding from, to was acquired" at the first
// site observed.
type lockOrderEdge struct {
	from, to *lockClass
	pkg      string
	pos      token.Pos
	reported bool
}

// lockOrderResult is the Prepare output: findings grouped per package.
type lockOrderResult struct {
	byPkg map[string][]lockOrderFinding
}

func runLockOrder(p *Pass) {
	res, _ := p.Shared.(*lockOrderResult)
	if res == nil {
		return
	}
	for _, f := range res.byPkg[p.Path] {
		p.Reportf(f.pos, "%s", f.msg)
	}
}

type classSet map[*lockClass]bool

func (s classSet) addAll(o classSet) bool {
	grew := false
	for c := range o {
		if !s[c] {
			s[c] = true
			grew = true
		}
	}
	return grew
}

func prepareLockOrder(pkgs []*Package, graph *callgraph.Graph) *lockOrderResult {
	res := &lockOrderResult{byPkg: make(map[string][]lockOrderFinding)}
	report := func(pkg string, pos token.Pos, format string, args ...any) {
		res.byPkg[pkg] = append(res.byPkg[pkg], lockOrderFinding{
			pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...),
		})
	}

	classes, byName := collectLockClasses(pkgs, report)
	if len(byName) == 0 {
		return res
	}

	var nodes []*callgraph.Node
	for _, n := range graph.Nodes {
		if n.Body != nil {
			nodes = append(nodes, n)
		}
	}

	// acqTrans: every class a function may acquire, transitively — a fixed
	// point over the call graph.
	acqTrans := make(map[*callgraph.Node]classSet)
	for _, n := range nodes {
		acqTrans[n] = directAcquires(n, classes)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, c := range n.Calls {
				if acqTrans[c] != nil && acqTrans[n].addAll(acqTrans[c]) {
					changed = true
				}
			}
		}
	}

	// Per-function flow: collect acquisition-order edges.
	var edges []*lockOrderEdge
	edgeIndex := make(map[[2]*lockClass]*lockOrderEdge)
	recordEdge := func(from, to *lockClass, pkg string, pos token.Pos) {
		key := [2]*lockClass{from, to}
		if _, seen := edgeIndex[key]; seen {
			return
		}
		e := &lockOrderEdge{from: from, to: to, pkg: pkg, pos: pos}
		edgeIndex[key] = e
		edges = append(edges, e)
	}
	for _, n := range nodes {
		walkLockOrderFlow(n, classes, acqTrans, graph, recordEdge)
	}

	// Rank discipline over the deduplicated edges.
	for _, e := range edges {
		switch {
		case e.from == e.to:
			e.reported = true
			report(e.pkg, e.pos, "acquires lock class %q while already holding it; instances of one class have no defined order", e.to.name)
		case e.from.ranked && e.to.ranked && e.to.rank < e.from.rank:
			e.reported = true
			report(e.pkg, e.pos, "lock order violation: acquires %q (rank %d) while holding %q (rank %d); pdr:lockrank ranks must ascend", e.to.name, e.to.rank, e.from.name, e.from.rank)
		case e.from.ranked && e.to.ranked && e.to.rank == e.from.rank:
			e.reported = true
			report(e.pkg, e.pos, "lock order violation: acquires %q while holding %q, both rank %d; give nested classes distinct ascending ranks", e.to.name, e.from.name, e.from.rank)
		}
	}

	reportLockCycles(edges, report)
	return res
}

// collectLockClasses parses every pdr:lockrank directive on struct fields
// into the class registry, reporting malformed and conflicting directives.
func collectLockClasses(pkgs []*Package, report func(string, token.Pos, string, ...any)) (map[*types.Var]*lockClass, map[string]*lockClass) {
	classes := make(map[*types.Var]*lockClass)
	byName := make(map[string]*lockClass)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					name, rank, ranked, pos, found, bad := parseLockRank(field.Doc, field.Comment)
					if bad != "" {
						report(pkg.Path, pos, "%s", bad)
						continue
					}
					if !found {
						continue
					}
					cls := byName[name]
					if cls == nil {
						cls = &lockClass{name: name, rank: rank, ranked: ranked, pos: pos}
						byName[name] = cls
					} else if cls.ranked != ranked || (ranked && cls.rank != rank) {
						report(pkg.Path, pos, "pdr:lockrank %s: conflicting rank with the declaration at another field; one class, one rank", name)
						continue
					}
					for _, id := range field.Names {
						if v, isVar := pkg.Info.Defs[id].(*types.Var); isVar && v != nil {
							classes[v] = cls
						}
					}
				}
				return true
			})
		}
	}
	return classes, byName
}

// parseLockRank extracts one pdr:lockrank directive from the field's doc or
// trailing comment: `pdr:lockrank <name>` (unranked, cycle detection only)
// or `pdr:lockrank <name> <rank>`.
func parseLockRank(groups ...*ast.CommentGroup) (name string, rank int, ranked bool, pos token.Pos, found bool, malformed string) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, LockRankDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, LockRankDirective))
			fields := strings.Fields(rest)
			pos = c.Pos()
			switch len(fields) {
			case 1:
				return fields[0], 0, false, pos, true, ""
			case 2:
				r, err := strconv.Atoi(fields[1])
				if err != nil {
					return "", 0, false, pos, false, fmt.Sprintf("malformed pdr:lockrank: rank %q is not an integer", fields[1])
				}
				return fields[0], r, true, pos, true, ""
			default:
				return "", 0, false, pos, false, "malformed pdr:lockrank: want \"pdr:lockrank <name> [rank]\""
			}
		}
	}
	return "", 0, false, token.NoPos, false, ""
}

// directAcquires scans one body (nested literals excluded — they are their
// own nodes — and defers too) for the classes it locks.
func directAcquires(n *callgraph.Node, classes map[*types.Var]*lockClass) classSet {
	acq := classSet{}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			op, ok := mutexOpOf(n.Unit.Info, x)
			if !ok {
				return true
			}
			switch op.name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				if cls, classed := classOfMutexExpr(n.Unit.Info, classes, x.Fun.(*ast.SelectorExpr).X); classed {
					acq[cls] = true
				}
			}
		}
		return true
	})
	return acq
}

// classOfMutexExpr resolves the mutex expression of a Lock/Unlock call to
// its annotated class: s.mu → the mu field's class, whatever the
// expression it is reached through.
func classOfMutexExpr(info *types.Info, classes map[*types.Var]*lockClass, e ast.Expr) (*lockClass, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return nil, false
			}
			e = t.X
		case *ast.SelectorExpr:
			if s, ok := info.Selections[t]; ok && s.Kind() == types.FieldVal {
				if v, isVar := s.Obj().(*types.Var); isVar {
					if cls, classed := classes[v]; classed {
						return cls, true
					}
				}
			}
			return nil, false
		case *ast.Ident:
			if v, ok := info.Uses[t].(*types.Var); ok {
				if cls, classed := classes[v]; classed {
					return cls, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// walkLockOrderFlow runs the must-held flow over one body and
// emits acquisition-order edges: at every classed acquire and every call
// into a class-acquiring callee, each held class gains an edge to the
// acquired one.
func walkLockOrderFlow(
	n *callgraph.Node,
	classes map[*types.Var]*lockClass,
	acqTrans map[*callgraph.Node]classSet,
	graph *callgraph.Graph,
	recordEdge func(from, to *lockClass, pkg string, pos token.Pos),
) {
	keyClass := make(map[string]*lockClass)
	heldClasses := func(st lockState) classSet {
		out := classSet{}
		for k := range st {
			if cls := keyClass[k]; cls != nil {
				out[cls] = true
			}
		}
		return out
	}
	info, pkg := n.Unit.Info, n.Unit.Path
	// step advances the state across one node; with emit true it also
	// records edges (the replay pass).
	step := func(node ast.Node, in lockState, emit bool) lockState {
		out := in
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.DeferStmt:
				return false // releases at exit; mid-body state unchanged
			case *ast.FuncLit:
				// The literal is its own node; its occurrence here may run
				// under the current hold set.
				if emit {
					if ln := graph.LitNode(x); ln != nil {
						for h := range heldClasses(out) {
							for a := range acqTrans[ln] {
								recordEdge(h, a, pkg, x.Pos())
							}
						}
					}
				}
				return false
			case *ast.CallExpr:
				if op, ok := mutexOpOf(info, x); ok {
					cls, classed := classOfMutexExpr(info, classes, x.Fun.(*ast.SelectorExpr).X)
					if classed && (op.name == "Lock" || op.name == "RLock") {
						keyClass[op.key] = cls
						if emit {
							for h := range heldClasses(out) {
								recordEdge(h, cls, pkg, op.pos)
							}
						}
					}
					out = out.apply(op)
					return true
				}
				callee := graph.Callee(info, x)
				if callee == nil {
					return true
				}
				if emit {
					for h := range heldClasses(out) {
						for a := range acqTrans[callee] {
							recordEdge(h, a, pkg, x.Lparen)
						}
					}
				}
			}
			return true
		})
		return out
	}
	g := cfg.New(n.Body)
	res := cfg.Run(g, &cfg.Analysis[lockState]{
		Entry: lockState{},
		Join:  joinLockStates,
		Equal: equalLockStates,
		Transfer: func(b *cfg.Block, in lockState) lockState {
			for _, n := range b.Nodes {
				in = step(n, in, false)
			}
			return in
		},
	})
	res.WalkReached(
		func(node ast.Node, in lockState) lockState { return step(node, in, false) },
		func(node ast.Node, before lockState) { step(node, before, true) },
	)
}

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

// reportLockCycles finds acquisition cycles among classes whose edges were
// not already reported as rank violations (rank checks subsume cycles among
// fully ranked classes, so this catches the unranked remainder).
func reportLockCycles(edges []*lockOrderEdge, report func(string, token.Pos, string, ...any)) {
	adj := make(map[*lockClass][]*lockOrderEdge)
	for _, e := range edges {
		if e.reported || e.from == e.to {
			continue
		}
		adj[e.from] = append(adj[e.from], e)
	}
	// Iterative DFS cycle detection with deterministic order: classes by
	// name, out-edges in insertion order. Each cycle is reported once, at
	// its first edge, naming the classes along it.
	var classNames []*lockClass
	for c := range adj {
		classNames = append(classNames, c)
	}
	sort.Slice(classNames, func(i, j int) bool { return classNames[i].name < classNames[j].name })
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make(map[*lockClass]int)
	reportedCycle := make(map[*lockClass]bool)
	var path []*lockOrderEdge
	var visit func(c *lockClass)
	visit = func(c *lockClass) {
		state[c] = onStack
		for _, e := range adj[c] {
			switch state[e.to] {
			case unvisited:
				path = append(path, e)
				visit(e.to)
				path = path[:len(path)-1]
			case onStack:
				// Found a back edge: the cycle is e plus the path suffix
				// from e.to back to c.
				cycle := []*lockOrderEdge{e}
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
					if path[i].from == e.to {
						break
					}
				}
				if reportedCycle[e.to] {
					continue
				}
				reportedCycle[e.to] = true
				names := make([]string, 0, len(cycle))
				for _, ce := range cycle {
					names = append(names, ce.from.name)
				}
				sort.Strings(names)
				report(e.pkg, e.pos, "lock classes %s form an acquisition cycle (possible deadlock); give them pdr:lockrank ranks and acquire in ascending order", strings.Join(names, ", "))
			}
		}
		state[c] = done
	}
	for _, c := range classNames {
		if state[c] == unvisited {
			visit(c)
		}
	}
}
