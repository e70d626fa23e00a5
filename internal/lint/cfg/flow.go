package cfg

import "go/ast"

// Analysis is a forward dataflow problem over a Graph. F is the fact type
// attached to block entry points; the framework iterates transfer functions
// to a fixed point using a worklist, joining facts where paths merge.
//
// The lattice contract is the usual one: Join must be commutative,
// associative, and idempotent, and Transfer must be monotone with respect to
// the order Join induces — otherwise the worklist may not terminate.
type Analysis[F any] struct {
	// Entry is the fact at the function's entry block.
	Entry F
	// Join merges facts from two predecessors at a control-flow merge.
	Join func(a, b F) F
	// Equal reports whether two facts are indistinguishable; it bounds the
	// fixed-point iteration.
	Equal func(a, b F) bool
	// Transfer produces a block's exit fact from its entry fact by walking
	// the block's nodes. It must not mutate in (copy first if F aliases).
	Transfer func(b *Block, in F) F
	// EdgeRefine, when non-nil, filters the fact flowing along one edge
	// before it joins into the successor. Combined with Graph.Conds this
	// gives limited path sensitivity: an analysis can drop facts that the
	// branch condition contradicts ("this pooled value is nil on the
	// err != nil edge"). It must not mutate out (copy first if F aliases)
	// and must be monotone like Transfer, or the worklist may not converge.
	EdgeRefine func(from, to *Block, out F) F
}

// Result holds the converged entry facts of a forward analysis.
type Result[F any] struct {
	g *Graph
	a *Analysis[F]
	// In maps block index to the block's converged entry fact. Blocks never
	// reached from Entry are absent.
	In map[int]F
}

// Run iterates a to a fixed point over g and returns the entry facts.
func Run[F any](g *Graph, a *Analysis[F]) *Result[F] {
	res := &Result[F]{g: g, a: a, In: map[int]F{g.Entry.Index: a.Entry}}
	work := []*Block{g.Entry}
	onWork := map[int]bool{g.Entry.Index: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		onWork[b.Index] = false
		out := a.Transfer(b, res.In[b.Index])
		for _, s := range b.Succs {
			cur, seen := res.In[s.Index]
			next := out
			if a.EdgeRefine != nil {
				next = a.EdgeRefine(b, s, next)
			}
			if seen {
				next = a.Join(cur, next)
				if a.Equal(cur, next) {
					continue
				}
			}
			res.In[s.Index] = next
			if !onWork[s.Index] {
				onWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return res
}

// Reached reports whether b gained an entry fact, i.e. is reachable from
// Entry. Dead blocks (code after return/break) are not analyzed.
func (r *Result[F]) Reached(b *Block) bool {
	_, ok := r.In[b.Index]
	return ok
}

// WalkReached replays the transfer function over every reached block,
// invoking visit(node, fact) for each node with the fact holding *before*
// that node executes. step advances the fact across one node; it is the
// per-node piece of the analysis' Transfer (the caller guarantees Transfer
// is equivalent to folding step over b.Nodes).
//
// This is how analyzers report: Run converges the facts, WalkReached
// re-walks each block from its converged entry fact and lets the analyzer
// inspect the state at every program point.
func (r *Result[F]) WalkReached(step func(n ast.Node, in F) F, visit func(n ast.Node, before F)) {
	for _, b := range r.g.Blocks {
		in, ok := r.In[b.Index]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			visit(n, in)
			in = step(n, in)
		}
	}
}

// ExitFacts returns the converged facts at the synthetic Exit block (normal
// termination), or ok=false if no path reaches it.
func (r *Result[F]) ExitFacts() (F, bool) {
	f, ok := r.In[r.g.Exit.Index]
	return f, ok
}

// KeySets is the may-set lattice the flow analyzers share: for each key (a
// mutex, a pooled value), the set of facts that hold on *some* path reaching
// a program point. The join is per-key set union, so a fact from either
// branch survives a merge and "some path leaks" stays visible at exit.
// Facts are comparable values, so a set of them is a map key set. A
// KeySets reaching a transfer function is shared with predecessors: Clone
// before changing it.
type KeySets[F comparable] map[string]map[F]bool

// Clone returns a copy of s that shares no set with it.
func (s KeySets[F]) Clone() KeySets[F] {
	out := make(KeySets[F], len(s))
	for k, set := range s {
		cp := make(map[F]bool, len(set))
		for f := range set {
			cp[f] = true
		}
		out[k] = cp
	}
	return out
}

// Join is the per-key union of s and o, as a new KeySets.
func (s KeySets[F]) Join(o KeySets[F]) KeySets[F] {
	out := s.Clone()
	for k, set := range o {
		if out[k] == nil {
			out[k] = make(map[F]bool, len(set))
		}
		for f := range set {
			out[k][f] = true
		}
	}
	return out
}

// Equal reports whether s and o hold the same facts under the same keys.
func (s KeySets[F]) Equal(o KeySets[F]) bool {
	if len(s) != len(o) {
		return false
	}
	for k, ss := range s {
		os, ok := o[k]
		if !ok || len(ss) != len(os) {
			return false
		}
		for f := range ss {
			if !os[f] {
				return false
			}
		}
	}
	return true
}

// Map replaces key's set with fn applied to each of its facts. A fact for
// which fn reports false is dropped, and key is deleted when none is left.
// The old set is not changed.
func (s KeySets[F]) Map(key string, fn func(F) (F, bool)) {
	next := make(map[F]bool, len(s[key]))
	for f := range s[key] {
		if f, keep := fn(f); keep {
			next[f] = true
		}
	}
	if len(next) == 0 {
		delete(s, key)
		return
	}
	s[key] = next
}
