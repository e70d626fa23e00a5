package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"pdr/internal/lint/callgraph"
)

// buildFixture type-checks one synthetic package and builds its call graph.
func buildFixture(t *testing.T, src string) *callgraph.Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fix", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return callgraph.Build([]callgraph.Unit{{
		Path:  "fix",
		Files: []*ast.File{file},
		Pkg:   pkg,
		Info:  info,
	}})
}

// nodeByName finds a node by its printable name.
func nodeByName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not in graph; have %d nodes", name, len(g.Nodes))
	return nil
}

// calls reports whether from has a resolved edge to the node named to.
func calls(t *testing.T, g *callgraph.Graph, from, to string) bool {
	t.Helper()
	target := nodeByName(t, g, to)
	for _, c := range nodeByName(t, g, from).Calls {
		if c == target {
			return true
		}
	}
	return false
}

func TestMethodCallResolvesViaReceiver(t *testing.T) {
	g := buildFixture(t, `package fix

type server struct{}

func (s *server) run() { s.step() }

func (s *server) step() {}

func Entry() {
	var s server
	s.run()
}
`)
	if !calls(t, g, "fix.Entry", "fix.(*server).run") {
		t.Errorf("Entry -> (*server).run not resolved through the receiver")
	}
	if !calls(t, g, "fix.(*server).run", "fix.(*server).step") {
		t.Errorf("(*server).run -> (*server).step not resolved through the receiver")
	}
}

func TestMethodValueAndFuncValueTrackedFlowInsensitively(t *testing.T) {
	g := buildFixture(t, `package fix

type server struct{}

func (s *server) work() {}

func helper() {}

func call(f func()) { f() }

func Entry(s *server) {
	f := s.work // method value: edge Entry -> (*server).work
	call(f)
	call(helper) // function value as argument: edge Entry -> helper
}
`)
	for _, name := range []string{"fix.(*server).work", "fix.helper", "fix.call"} {
		if !calls(t, g, "fix.Entry", name) {
			t.Errorf("Entry -> %s missing: value references are edges", name)
		}
	}
	// call() invokes its parameter: a dynamic site, not an edge.
	if callNode := nodeByName(t, g, "fix.call"); len(callNode.Calls) != 0 {
		t.Errorf("fix.call: unexpected resolved edges %v", names(callNode.Calls))
	}
}

// TestFuncLitIsOwnNodeAndInheritsHot pins that a literal is a node of its
// own, reached only through the function that encloses it: whatever reaches
// Entry reaches leaf via Entry$1, and nothing reaches cold's literal but cold.
func TestFuncLitIsOwnNodeAndInheritsHot(t *testing.T) {
	g := buildFixture(t, `package fix

func leaf() {}

func Entry() {
	f := func() { leaf() }
	f()
}

func cold() {
	g := func() { leaf() }
	g()
}
`)
	if !calls(t, g, "fix.Entry", "fix.Entry$1") {
		t.Errorf("Entry must have an edge to its literal")
	}
	if !calls(t, g, "fix.Entry$1", "fix.leaf") {
		t.Errorf("the literal, not Entry, calls leaf")
	}
	if calls(t, g, "fix.Entry", "fix.leaf") {
		t.Errorf("the literal's call must not be attributed to Entry")
	}
	if !calls(t, g, "fix.cold", "fix.cold$1") {
		t.Errorf("cold must have an edge to its own literal")
	}
	if calls(t, g, "fix.Entry", "fix.cold$1") {
		t.Errorf("cold's literal must not be reached from Entry")
	}
}

func TestInterfaceCallIsDynamicFallback(t *testing.T) {
	g := buildFixture(t, `package fix

type runner interface{ run() }

type impl struct{}

func (impl) run() { leaf() }

func leaf() {}

func Entry(r runner) { r.run() }
`)
	// The implementation is NOT resolved through the interface: the
	// documented blind spot of a static graph.
	if entry := nodeByName(t, g, "fix.Entry"); len(entry.Calls) != 0 {
		t.Errorf("Entry: interface dispatch resolved to %v, want no edge", names(entry.Calls))
	}
}

func TestConversionsAndBuiltinsAreNotCalls(t *testing.T) {
	g := buildFixture(t, `package fix

type id int

func Entry(xs []int) int {
	ys := make([]id, 0, len(xs))
	for _, x := range xs {
		ys = append(ys, id(x))
	}
	return len(ys)
}
`)
	if entry := nodeByName(t, g, "fix.Entry"); len(entry.Calls) != 0 {
		t.Errorf("Entry: unexpected resolved edges %v", names(entry.Calls))
	}
}

func names(ns []*callgraph.Node) []string {
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, n.Name)
	}
	return out
}
