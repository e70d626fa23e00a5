package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses a function body (the text between the braces) and
// returns its BlockStmt.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// reachable returns the set of blocks reachable from g.Entry.
func reachable(g *Graph) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// nodeStrings renders every node in reachable blocks, in block order, as a
// coarse fingerprint for structural assertions.
func nodeStrings(g *Graph) []string {
	seen := reachable(g)
	var out []string
	for _, b := range g.Blocks {
		if !seen[b] {
			continue
		}
		for _, n := range b.Nodes {
			out = append(out, fmt.Sprintf("%T", n))
		}
	}
	return out
}

func TestStraightLine(t *testing.T) {
	g := New(parseBody(t, "x := 1\nx++\n_ = x"))
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry should flow straight to exit, got %v", g.Entry.Succs)
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("nil body: entry should flow to exit")
	}
}

func TestIfElseMerges(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`))
	// Entry: x:=0, cond. Two succ branches that both merge before _ = x.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if head should have 2 successors, got %d", len(g.Entry.Succs))
	}
	a, b := g.Entry.Succs[0], g.Entry.Succs[1]
	if len(a.Succs) != 1 || len(b.Succs) != 1 || a.Succs[0] != b.Succs[0] {
		t.Fatalf("then/else must merge at one block")
	}
	merge := a.Succs[0]
	if len(merge.Nodes) != 1 {
		t.Fatalf("merge block should hold the trailing statement, got %d nodes", len(merge.Nodes))
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := New(parseBody(t, "x := 0\nif x > 0 {\n\tx = 1\n}\n_ = x"))
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if head should branch to then and done, got %d succs", len(g.Entry.Succs))
	}
}

func TestNoDoubleVisit(t *testing.T) {
	// The statements inside composite constructs must appear exactly once
	// across all blocks — the builder must not add both the composite node
	// and its children.
	g := New(parseBody(t, `
for i := 0; i < 3; i++ {
	if i == 1 {
		continue
	}
	_ = i
}`))
	counts := map[string]int{}
	for _, s := range nodeStrings(g) {
		counts[s]++
	}
	// One init assign, one continue-skipped blank assign; IncDecStmt once
	// (the post statement); the loop cond and if cond are BinaryExprs.
	if counts["*ast.IncDecStmt"] != 1 {
		t.Fatalf("post statement should appear exactly once, got %d", counts["*ast.IncDecStmt"])
	}
	if counts["*ast.ForStmt"] != 0 || counts["*ast.IfStmt"] != 0 {
		t.Fatalf("composite statements must not appear as block nodes: %v", counts)
	}
}

func TestForLoopEdges(t *testing.T) {
	g := New(parseBody(t, "for i := 0; i < 3; i++ {\n\t_ = i\n}\n_ = 1"))
	// Find the head: the reachable block holding the BinaryExpr condition.
	var head *Block
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.BinaryExpr); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatalf("no block holds the loop condition")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("loop head should branch to body and done, got %d", len(head.Succs))
	}
}

func TestInfiniteForHasNoExitEdge(t *testing.T) {
	g := New(parseBody(t, "for {\n\t_ = 1\n}"))
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); ok {
		t.Fatalf("for{} must not reach Exit")
	}
}

func TestInfiniteForWithBreakReachesExit(t *testing.T) {
	g := New(parseBody(t, "for {\n\tbreak\n}"))
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); !ok {
		t.Fatalf("for{break} must reach Exit")
	}
}

func TestRangeEdges(t *testing.T) {
	g := New(parseBody(t, "xs := []int{1}\nfor _, x := range xs {\n\t_ = x\n}"))
	var head *Block
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if id, ok := n.(*ast.Ident); ok && id.Name == "xs" {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatalf("no block holds the range operand")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head should branch to body and done, got %d", len(head.Succs))
	}
}

func TestSwitchDefaultRemovesFallEdge(t *testing.T) {
	// With a default clause every path goes through some clause.
	withDefault := New(parseBody(t, `
x := 0
switch x {
case 1:
	_ = 1
default:
	_ = 2
}`))
	without := New(parseBody(t, `
x := 0
switch x {
case 1:
	_ = 1
}`))
	// Head is Entry in both; count successors.
	if n := len(withDefault.Entry.Succs); n != 2 {
		t.Fatalf("switch with default: head succs = %d, want 2 (both clauses)", n)
	}
	if n := len(without.Entry.Succs); n != 2 {
		t.Fatalf("switch without default: head succs = %d, want 2 (clause + done)", n)
	}
}

func TestFallthroughChains(t *testing.T) {
	g := New(parseBody(t, `
x := 0
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
}
_ = x`))
	// The case-1 clause must have an edge into the case-2 clause: find the
	// block assigning 10 and check one successor assigns 20.
	var from *Block
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "10" {
					from = b
				}
			}
		}
	}
	if from == nil {
		t.Fatalf("case-1 body block not found")
	}
	found := false
	for _, s := range from.Succs {
		for _, n := range s.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "20" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("fallthrough edge from case 1 to case 2 missing")
	}
}

func TestSelectClauses(t *testing.T) {
	g := New(parseBody(t, `
ch := make(chan int)
select {
case v := <-ch:
	_ = v
case ch <- 1:
}`))
	// Entry ends at the select head; it must branch to both comm clauses.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("select head succs = %d, want 2", n)
	}
}

func TestEmptySelectNeverReturns(t *testing.T) {
	g := New(parseBody(t, "select {}"))
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); ok {
		t.Fatalf("select{} must not reach Exit")
	}
}

func TestReturnLeadsToExitAndDeadCode(t *testing.T) {
	g := New(parseBody(t, "return\n_ = 1"))
	res := Run(g, boolAnalysis())
	if _, ok := res.ExitFacts(); !ok {
		t.Fatalf("return must reach Exit")
	}
	// The statement after return lives in an unreached block.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok && res.Reached(b) {
				t.Fatalf("code after return must be unreachable")
			}
		}
	}
}

func TestPanicLeadsToPanicBlock(t *testing.T) {
	g := New(parseBody(t, `panic("boom")`))
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Panic {
		t.Fatalf("panic must flow to the Panic block, got %v", g.Entry.Succs)
	}
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); ok {
		t.Fatalf("unconditional panic must not reach Exit")
	}
}

func TestOsExitIsTerminator(t *testing.T) {
	g := New(parseBody(t, "os.Exit(1)"))
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Panic {
		t.Fatalf("os.Exit must flow to the Panic block")
	}
}

func TestGotoForward(t *testing.T) {
	g := New(parseBody(t, "x := 0\ngoto done\ndone:\n_ = x"))
	res := Run(g, boolAnalysis())
	if _, ok := res.ExitFacts(); !ok {
		t.Fatalf("goto to label must reach Exit")
	}
}

func TestGotoBackwardLoops(t *testing.T) {
	g := New(parseBody(t, "x := 0\nagain:\nx++\nif x < 3 {\n\tgoto again\n}"))
	// The analysis must converge (worklist with join); success is just not
	// hanging and reaching Exit.
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); !ok {
		t.Fatalf("backward goto loop must converge and reach Exit")
	}
}

func TestLabeledBreakAndContinue(t *testing.T) {
	g := New(parseBody(t, `
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if j == 1 {
			continue outer
		}
		if j == 2 {
			break outer
		}
	}
}
_ = 1`))
	if _, ok := Run(g, boolAnalysis()).ExitFacts(); !ok {
		t.Fatalf("labeled break must reach the statement after the loop")
	}
}

func TestFuncLitBodyIsOpaque(t *testing.T) {
	g := New(parseBody(t, "f := func() {\n\treturn\n}\nf()"))
	// The literal's return must NOT create an edge to the outer Exit from
	// the entry block; entry holds the assign + call and flows to Exit once.
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("func literal body leaked into enclosing graph: %v", g.Entry.Succs)
	}
	joined := strings.Join(nodeStrings(g), " ")
	if !strings.Contains(joined, "AssignStmt") {
		t.Fatalf("assign of literal missing from graph: %s", joined)
	}
}

// boolAnalysis is a trivial lattice (any path reaches here) used to probe
// reachability in the tests above.
func boolAnalysis() *Analysis[bool] {
	return &Analysis[bool]{
		Entry:    true,
		Join:     func(a, b bool) bool { return a || b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: func(b *Block, in bool) bool { return in },
	}
}

// TestDataflowJoin runs a real forward analysis: track an integer "lock
// level" set by assignments lock=1 / lock=2 / lock=0, joined with min, and
// assert the converged fact at Exit for a diamond.
func TestDataflowJoin(t *testing.T) {
	g := New(parseBody(t, `
lock := 0
if cond {
	lock = 2
} else {
	lock = 1
}
_ = lock`))
	level := func(n ast.Node, in int) int {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return in
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name != "lock" {
			return in
		}
		if lit, ok := as.Rhs[0].(*ast.BasicLit); ok {
			switch lit.Value {
			case "0":
				return 0
			case "1":
				return 1
			case "2":
				return 2
			}
		}
		return in
	}
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	a := &Analysis[int]{
		Entry: -1, // unanalyzed sentinel; Entry block's first assign sets 0
		Join:  min,
		Equal: func(a, b int) bool { return a == b },
		Transfer: func(b *Block, in int) int {
			for _, n := range b.Nodes {
				in = level(n, in)
			}
			return in
		},
	}
	res := Run(g, a)
	exit, ok := res.ExitFacts()
	if !ok {
		t.Fatalf("diamond must reach Exit")
	}
	if exit != 1 {
		t.Fatalf("join of {2,1} should be 1 at exit, got %d", exit)
	}
	// WalkReached must report the pre-node fact: the final blank assign
	// sees the joined value 1.
	sawMerge := false
	res.WalkReached(level, func(n ast.Node, before int) {
		if as, ok := n.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				sawMerge = true
				if before != 1 {
					t.Fatalf("fact before merge use = %d, want 1", before)
				}
			}
		}
	})
	if !sawMerge {
		t.Fatalf("merge-point use not visited")
	}
}

// The corner cases below pin statement shapes the interprocedural call
// graph leans on: the CFG must surface them as ordinary nodes in the
// enclosing function's blocks (so analyzers walking Block.Nodes see the
// calls), without leaking literal bodies or distorting control flow.

func TestMethodValueAssignmentIsOrdinaryNode(t *testing.T) {
	g := New(parseBody(t, "f := s.Run\nf()\n_ = f"))
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("method-value assignment distorted flow: %v", g.Entry.Succs)
	}
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3 (assign, call, use)", len(g.Entry.Nodes))
	}
	// The assignment node must carry the selector so a walker can resolve
	// the method value.
	sawMethodValue := false
	ast.Inspect(g.Entry.Nodes[0], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
			sawMethodValue = true
		}
		return true
	})
	if !sawMethodValue {
		t.Fatalf("assign node lost the s.Run selector: %T", g.Entry.Nodes[0])
	}
}

func TestDeferAndGoArgumentsStayInBlock(t *testing.T) {
	// Calls in defer/go *arguments* run now, at the statement, even though
	// the deferred/spawned call runs later: the statement must be a node of
	// the current block with its argument calls intact.
	g := New(parseBody(t, "defer release(acquire())\ngo worker(setup())\ndone()"))
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3 (defer, go, call)", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("defer/go distorted flow: %v", g.Entry.Succs)
	}
	for i, wantInner := range []string{"acquire", "setup"} {
		found := false
		ast.Inspect(g.Entry.Nodes[i], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == wantInner {
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("node %d lost its argument call %q", i, wantInner)
		}
	}
}

func TestDeferredFuncLitBodyIsOpaque(t *testing.T) {
	// A return inside a deferred literal must not create an edge to the
	// enclosing Exit; only the defer statement itself is in the block.
	g := New(parseBody(t, "defer func() {\n\treturn\n}()\nx := 1\n_ = x"))
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("deferred literal body leaked into enclosing graph: %v", g.Entry.Succs)
	}
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
}

func TestVariadicCallSites(t *testing.T) {
	// Variadic calls — both element form and slice-spread — are ordinary
	// nodes; the spread's ellipsis must not be mistaken for control flow.
	g := New(parseBody(t, "xs := []int{1, 2}\nsink(1, 2, 3)\nsink(xs...)"))
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("variadic calls distorted flow: %v", g.Entry.Succs)
	}
	spread := g.Entry.Nodes[2]
	found := false
	ast.Inspect(spread, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Ellipsis.IsValid() {
			found = true
		}
		return true
	})
	if !found {
		t.Fatalf("spread call site lost its ellipsis: %T", spread)
	}
}

func TestVariadicCallInLoopCondition(t *testing.T) {
	// A variadic call in a loop condition sits in the loop-head block and
	// is re-evaluated per iteration: the head must have the back edge.
	g := New(parseBody(t, "for check(1, 2) {\n\tstep()\n}\nrest()"))
	heads := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if e, ok := n.(ast.Expr); ok {
				if call, ok := e.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "check" {
						heads++
						if len(b.Succs) != 2 {
							t.Fatalf("loop head should branch (body, after), got %d succs", len(b.Succs))
						}
					}
				}
			}
		}
	}
	if heads != 1 {
		t.Fatalf("loop-head condition appeared %d times, want 1", heads)
	}
}

// TestCondEdges pins the branch-target records the path-sensitive analyzers
// (poollife's err/nil refinement) rely on: every if head appears in Conds,
// Then is the true branch, and Else is the else block — or the join block
// when the if has no else.
func TestCondEdges(t *testing.T) {
	t.Run("if with else", func(t *testing.T) {
		g := New(parseBody(t, "if cond {\n\ta()\n} else {\n\tb()\n}\nafter()"))
		if len(g.Conds) != 1 {
			t.Fatalf("got %d cond edges, want 1", len(g.Conds))
		}
		for head, ce := range g.Conds {
			if ce.Cond == nil {
				t.Fatal("cond edge lost its condition expression")
			}
			hb := g.Blocks[head]
			if len(hb.Succs) != 2 {
				t.Fatalf("if head has %d successors, want 2", len(hb.Succs))
			}
			if !blockCalls(g.Blocks[ce.Then], "a") {
				t.Errorf("Then branch does not reach a()")
			}
			if !blockCalls(g.Blocks[ce.Else], "b") {
				t.Errorf("Else branch does not reach b()")
			}
		}
	})
	t.Run("if without else targets the join", func(t *testing.T) {
		g := New(parseBody(t, "if cond {\n\ta()\n}\nafter()"))
		if len(g.Conds) != 1 {
			t.Fatalf("got %d cond edges, want 1", len(g.Conds))
		}
		for _, ce := range g.Conds {
			if !blockCalls(g.Blocks[ce.Then], "a") {
				t.Errorf("Then branch does not reach a()")
			}
			if !blockCalls(g.Blocks[ce.Else], "after") {
				t.Errorf("no-else Else edge should land on the join block")
			}
		}
	})
}

// blockCalls reports whether b contains a call to the named function.
func blockCalls(b *Block, name string) bool {
	for _, n := range b.Nodes {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// TestEdgeRefine pins the path-refinement contract: the refined fact flows
// only along its edge, and refinements are re-joined at the merge point.
func TestEdgeRefine(t *testing.T) {
	// Facts are sets of strings; the condition "cond" kills the fact "x"
	// on the true edge only.
	type fact = map[string]bool
	join := func(a, b fact) fact {
		out := fact{}
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	}
	equal := func(a, b fact) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	g := New(parseBody(t, "if cond {\n\ta()\n} else {\n\tb()\n}\nafter()"))
	refined := 0
	res := Run(g, &Analysis[fact]{
		Entry: fact{"x": true},
		Join:  join,
		Equal: equal,
		Transfer: func(b *Block, in fact) fact {
			return in
		},
		EdgeRefine: func(from, to *Block, out fact) fact {
			ce, ok := g.Conds[from.Index]
			if !ok || to.Index != ce.Then {
				return out
			}
			refined++
			next := fact{}
			for k := range out {
				if k != "x" {
					next[k] = true
				}
			}
			return next
		},
	})
	if refined == 0 {
		t.Fatal("EdgeRefine was never invoked on the branch edge")
	}
	sawThen, sawElse := false, false
	for _, b := range g.Blocks {
		in, ok := res.In[b.Index]
		if !ok {
			continue
		}
		switch {
		case blockCalls(b, "a"):
			sawThen = true
			if in["x"] {
				t.Error("fact x survived into the refined Then branch")
			}
		case blockCalls(b, "b"):
			sawElse = true
			if !in["x"] {
				t.Error("fact x should persist on the unrefined Else branch")
			}
		case blockCalls(b, "after"):
			if !in["x"] {
				t.Error("join block should regain x from the Else path")
			}
		}
	}
	if !sawThen || !sawElse {
		t.Fatalf("branch blocks not found (then=%v else=%v)", sawThen, sawElse)
	}
}

func TestKeySetsLattice(t *testing.T) {
	a := KeySets[int]{"mu": {1: true}}
	b := KeySets[int]{"mu": {2: true}, "pool": {3: true}}
	j := a.Join(b)
	if want := (KeySets[int]{"mu": {1: true, 2: true}, "pool": {3: true}}); !j.Equal(want) {
		t.Fatalf("join = %v, want %v", j, want)
	}
	if len(a["mu"]) != 1 || a.Equal(j) {
		t.Fatalf("join changed its operand: %v", a)
	}
	// Map rewrites facts without touching the set a clone shares, and
	// deletes a key whose every fact is dropped.
	c := j.Clone()
	c.Map("mu", func(f int) (int, bool) { return f * 10, f != 1 })
	c.Map("pool", func(int) (int, bool) { return 0, false })
	if want := (KeySets[int]{"mu": {20: true}}); !c.Equal(want) {
		t.Fatalf("map = %v, want %v", c, want)
	}
	if !j["mu"][1] || !j["mu"][2] {
		t.Fatalf("map changed the set it replaced: %v", j)
	}
}
