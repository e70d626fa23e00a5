// Package cfg builds intra-procedural control-flow graphs over Go function
// bodies and runs forward dataflow analyses over them. It is the engine
// underneath pdrvet's flow-aware analyzers (deferunlock, noleak,
// poollife): where the first-generation analyzers compared token
// positions ("a Lock call textually before the first access"), the CFG
// makes path-sensitive questions answerable — "is the lock held on *every*
// path reaching this access?", "does *some* path exit without unlocking?".
//
// The graph is deliberately statement-grained. Basic blocks hold ast.Nodes in
// execution order; composite statements (if/for/range/switch/select) are
// decomposed so that a block contains only their control expressions — the
// condition of an if, the tag of a switch, the range operand — while the
// bodies live in successor blocks. Walking a block's node list therefore
// never re-visits a nested statement, and an analyzer's transfer function
// sees every executable node exactly once per path.
//
// Function literals are opaque: their bodies are never part of the enclosing
// graph (a closure runs at call time, not where it is written). Analyzers
// that care about closure bodies build a separate graph per literal, seeding
// it with whatever entry fact the occurrence point implies.
//
// Only the standard library is used (go/ast, go/token), matching the loader's
// offline, dependency-free contract.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: nodes executed in order, then a transfer to one
// of Succs. The synthetic Exit and Panic blocks have no nodes.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, construction
	// order; useful for deterministic iteration and debugging).
	Index int
	// Nodes are the statements and control expressions executed by this
	// block, in order. Composite statements contribute only their control
	// expressions here; their bodies are separate blocks.
	Nodes []ast.Node
	// Succs are the possible control transfers out of this block.
	Succs []*Block
}

// CondEdge records which successors of an if-head block are its true and
// false branches. The worklist engine itself is branch-insensitive (one out
// fact flows to every successor); analyses that want path refinement — "on
// the err != nil edge this value is invalid" — combine CondEdge with
// Analysis.EdgeRefine to filter facts per edge.
type CondEdge struct {
	// Cond is the if condition; it is also the last node of the head block,
	// so the refined fact has already flowed across it.
	Cond ast.Expr
	// Then and Else are block indices: Then is entered when Cond is true,
	// Else when it is false (the else branch, or the join block when the if
	// has none).
	Then, Else int
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters on call.
	Entry *Block
	// Exit is the synthetic normal-termination block: every return statement
	// and the fall-off end of the body lead here. Deferred calls run on the
	// way to Exit (and to Panic), after the facts of the returning block.
	Exit *Block
	// Panic is the synthetic abnormal-termination block: panic(...) calls
	// and recognized process terminators (os.Exit, log.Fatal*) lead here.
	Panic *Block
	// Blocks lists every block, Entry first; Exit and Panic are included.
	Blocks []*Block
	// Conds maps an if-head block's index to its branch targets. A block
	// heads at most one if statement (construction moves to the join block
	// before the next statement), so the map is single-valued.
	Conds map[int]CondEdge
}

// New builds the control-flow graph of body. A nil body (declared-only
// function) yields a graph whose Entry connects straight to Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{Conds: make(map[int]CondEdge)}
	b := &builder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.Panic = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmt(body)
	}
	b.edge(b.cur, g.Exit) // fall off the end
	return g
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label      string // the construct's label, "" if none
	breakTo    *Block
	continueTo *Block // nil for switch/select (continue passes through)
}

type builder struct {
	g   *Graph
	cur *Block
	// frames is the stack of enclosing loops/switches/selects.
	frames []frame
	// labels maps label names to their target blocks (created on first
	// reference, so forward gotos resolve).
	labels map[string]*Block
	// pendingLabel carries a label through to the loop/switch it annotates.
	pendingLabel string
	// fallTo is the next case body during switch construction.
	fallTo *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to target and makes target
// current.
func (b *builder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = target
}

// terminate ends the current block with an edge to target and continues in a
// fresh, unreachable block (the code after a return/break/goto).
func (b *builder) terminate(target *Block) {
	b.edge(b.cur, target)
	b.cur = b.newBlock()
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame resolves a break/continue target: the innermost matching frame,
// or the one carrying the label.
func (b *builder) findFrame(label string, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// isTerminatorCall reports whether call never returns: the builtin panic or
// a recognized process terminator (os.Exit, log.Fatal/Fatalf/Fatalln). The
// check is syntactic — pdrvet analyzes a tree where shadowing those names
// would itself be a review failure.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		// nothing

	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminatorCall(call) {
			b.terminate(b.g.Panic)
		}

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt:
		b.add(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.g.Exit)

	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.jump(target)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(labelName(s.Label), false); f != nil {
				b.terminate(f.breakTo)
			}
		case token.CONTINUE:
			if f := b.findFrame(labelName(s.Label), true); f != nil {
				b.terminate(f.continueTo)
			}
		case token.GOTO:
			if s.Label != nil {
				b.terminate(b.labelBlock(s.Label.Name))
			}
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.terminate(b.fallTo)
			}
		}

	case *ast.IfStmt:
		b.stmt(s.Init)
		b.add(s.Cond)
		head := b.cur
		done := b.newBlock()
		then := b.newBlock()
		b.edge(head, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, done)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, done)
			b.g.Conds[head.Index] = CondEdge{Cond: s.Cond, Then: then.Index, Else: els.Index}
		} else {
			b.edge(head, done)
			b.g.Conds[head.Index] = CondEdge{Cond: s.Cond, Then: then.Index, Else: done.Index}
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		head := b.newBlock()
		b.jump(head)
		b.add(s.Cond)
		body := b.newBlock()
		post := b.newBlock()
		done := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, done)
		}
		b.frames = append(b.frames, frame{label: label, breakTo: done, continueTo: post})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.jump(head)
		b.add(s.X)
		body := b.newBlock()
		done := b.newBlock()
		b.edge(head, body)
		b.edge(head, done)
		b.frames = append(b.frames, frame{label: label, breakTo: done, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		b.add(s.Tag)
		b.switchClauses(label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		done := b.newBlock()
		b.frames = append(b.frames, frame{label: label, breakTo: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			b.stmt(cc.Comm)
			for _, t := range cc.Body {
				b.stmt(t)
			}
			b.edge(b.cur, done)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no normal successor.
			b.edge(head, b.g.Panic)
		}
		b.cur = done

	default:
		// Unknown statement kinds flow straight through.
		b.add(s)
	}
}

// switchClauses wires the case bodies of a switch or type switch: the head
// (current block) branches to every clause, fallthrough chains to the next
// clause, and a missing default adds the no-match edge to done.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, allowFallthrough bool) {
	head := b.cur
	done := b.newBlock()
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if len(c.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.frames = append(b.frames, frame{label: label, breakTo: done})
	savedFall := b.fallTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if allowFallthrough && i+1 < len(clauses) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.edge(b.cur, done)
	}
	b.fallTo = savedFall
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}
