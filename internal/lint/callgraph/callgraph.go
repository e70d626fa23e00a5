// Package callgraph builds a type-informed static call graph over the
// module's packages, stdlib-only: the one module walk pdrvet's
// interprocedural analyzers (lockorder, poollife) read functions from.
//
// Nodes are the module's declared functions and methods plus every function
// literal (a closure runs where it is invoked, so it is its own node).
// Edges are resolved statically:
//
//   - direct calls to package-level functions (pkg.F, local F);
//   - method calls resolved through the receiver's named type (s.Method on a
//     concrete *Server resolves to (*Server).Method);
//   - function-literal and method-value *occurrences*, tracked
//     flow-insensitively: a literal or method value that appears anywhere in
//     a function body (assigned, passed as an argument, returned) gets an
//     edge from the enclosing function, because the enclosing context may
//     cause it to run. This over-approximates reachability, which is the
//     safe direction for a lint that asks "could this run while a lock is
//     held?".
//
// Calls the graph cannot resolve — through func-typed variables and fields,
// or through interface methods — get no edge.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Unit is one type-checked package handed to Build.
type Unit struct {
	// Path is the package import path.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one function, method, or function literal of the module.
type Node struct {
	// Func is the declared function or method; nil for literals.
	Func *types.Func
	// Lit is the function literal; nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function's body; nil for a declaration without one.
	Body *ast.BlockStmt
	// Unit is the package the function is declared in.
	Unit *Unit
	// Name is the printable identity: "pdr/internal/core.(*Server).Snapshot"
	// or "pdr/internal/sweep.DenseRects$1" for the first literal inside
	// DenseRects.
	Name string
	// Calls are the resolved static out-edges, deduplicated, in first-seen
	// (source) order.
	Calls []*Node
}

// Graph is the module call graph.
type Graph struct {
	Nodes []*Node

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Build constructs the call graph over the given units. Node order is
// deterministic: units in the given order, files in parse order,
// declarations in source order, literals right after their encloser in
// source order.
func Build(units []Unit) *Graph {
	g := &Graph{
		byObj: make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}

	// Pass 1: a node per declared function/method and per function literal.
	for i := range units {
		u := &units[i]
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := u.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{Func: obj, Body: fd.Body, Unit: u, Name: funcName(u.Path, obj)}
				g.Nodes = append(g.Nodes, n)
				g.byObj[obj] = n
				// Literal nodes, numbered in source order within the decl.
				seq := 0
				if fd.Body != nil {
					ast.Inspect(fd.Body, func(x ast.Node) bool {
						if fl, ok := x.(*ast.FuncLit); ok {
							seq++
							ln := &Node{
								Lit:  fl,
								Body: fl.Body,
								Unit: u,
								Name: fmt.Sprintf("%s$%d", n.Name, seq),
							}
							g.Nodes = append(g.Nodes, ln)
							g.byLit[fl] = ln
						}
						return true
					})
				}
			}
		}
	}

	// Pass 2: edges. Each node walks its own body, stopping at nested
	// literal boundaries (they walk themselves).
	for _, n := range g.Nodes {
		if n.Body != nil {
			g.edgesFrom(n)
		}
	}
	return g
}

// Callee returns the node a call statically invokes: a function literal
// called in place, or a declared function or method StaticCallee resolves.
// Calls through func-typed values and interface methods return nil.
func (g *Graph) Callee(info *types.Info, call *ast.CallExpr) *Node {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return g.byLit[fl]
	}
	if fn := StaticCallee(info, call); fn != nil {
		return g.byObj[fn]
	}
	return nil
}

// StaticCallee resolves a call to the *types.Func it names: package-level
// functions, methods on concrete receivers, and interface methods (which
// have no body to follow). Calls through func-typed values return nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// edgesFrom records the out-edges of n from its body, excluding nested
// function literals (each literal is its own node and walks its own body).
func (g *Graph) edgesFrom(n *Node) {
	seen := make(map[*Node]bool)
	addEdge := func(to *Node) {
		if to != nil && to != n && !seen[to] {
			seen[to] = true
			n.Calls = append(n.Calls, to)
		}
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// A literal occurring here may run wherever it flows: edge from
			// the encloser, then let the literal walk itself.
			addEdge(g.byLit[x])
			return false
		case *ast.Ident:
			// A package function or method named anywhere gets an edge:
			// the callee of a direct call (f(), pkg.F(), s.Method()) and,
			// flow-insensitively, a function or method value (f := s.Run,
			// ForEach(n, worker), return handler). Conversions and builtins
			// name no *types.Func and so add nothing.
			if fn, ok := n.Unit.Info.Uses[x].(*types.Func); ok && !isInterfaceMethod(fn) {
				addEdge(g.byObj[fn])
			}
		}
		return true
	})
}

// isInterfaceMethod reports whether fn is declared on an interface (its
// concrete implementations cannot be resolved statically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// funcName renders the printable identity of a declared function.
func funcName(path string, fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		s := types.TypeString(recv, func(p *types.Package) string { return "" })
		return fmt.Sprintf("%s.(%s).%s", path, s, fn.Name())
	}
	return path + "." + fn.Name()
}
