package tprtree

import (
	"math"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Search visits every indexed movement whose predicted position at time qt
// lies inside r (closed containment; callers needing the paper's half-open
// neighborhood semantics filter exactly on top of this conservative result).
// fn returning false stops the search.
func (t *Tree) Search(r geom.Rect, qt motion.Tick, fn func(motion.State) bool) {
	t.search(t.root, r, qt, fn)
}

func (t *Tree) search(pid storagePageID, r geom.Rect, qt motion.Tick, fn func(motion.State) bool) bool {
	n := t.readNode(pid)
	for i := range n.entries {
		e := &n.entries[i] // in place: the descent copies no entry
		if !e.intersectsAt(r, qt) {
			continue
		}
		if n.leaf {
			st := e.state()
			if r.ContainsClosed(st.PositionAt(qt)) {
				if !fn(st) {
					return false
				}
			}
		} else if !t.search(e.child, r, qt, fn) {
			return false
		}
	}
	return true
}

// Subtree names a part of the tree one descent can be split at (Split).
type Subtree struct{ pid storagePageID }

// Split starts a search over a region only the caller can describe — a set
// of windows, say, searched in one descent instead of one each. It returns,
// appended to dst, the subtrees one level under the root whose bounds at qt,
// as closed rectangles, satisfy overlaps (the root itself when it is a
// leaf). SearchSubtree then searches each; the subtrees share no page, so
// together they read every page at most once, however many of the caller's
// windows it meets, and they may be searched concurrently (the tree is
// read-only meanwhile, as for Search).
func (t *Tree) Split(dst []Subtree, qt motion.Tick, overlaps func(geom.Rect) bool) []Subtree {
	n := t.readNode(t.root)
	if n.leaf {
		return append(dst, Subtree{t.root})
	}
	for i := range n.entries {
		if e := &n.entries[i]; overlaps(e.boundAt(qt)) {
			dst = append(dst, Subtree{e.child})
		}
	}
	return dst
}

// SearchSubtree descends sub (from Split) into every node whose bound at qt
// satisfies overlaps, and hands fn every movement stored in a leaf it
// reaches, without a position test: fn makes its own exact one.
func (t *Tree) SearchSubtree(sub Subtree, qt motion.Tick, overlaps func(geom.Rect) bool, fn func(motion.State)) {
	n := t.readNode(sub.pid)
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			fn(e.state())
		} else if overlaps(e.boundAt(qt)) {
			t.SearchSubtree(Subtree{e.child}, qt, overlaps, fn)
		}
	}
}

// boundAt is e's bound at time qt as a closed rectangle.
func (e *entry) boundAt(qt motion.Tick) geom.Rect {
	return geom.NewRect(e.loAt(0, qt), e.loAt(1, qt), e.hiAt(0, qt), e.hiAt(1, qt))
}

// RangeQuery returns all movements whose predicted position at qt lies in r
// (closed containment).
func (t *Tree) RangeQuery(r geom.Rect, qt motion.Tick) []motion.State {
	var out []motion.State
	t.Search(r, qt, func(s motion.State) bool {
		out = append(out, s)
		return true
	})
	return out
}

// All returns every indexed movement (test and diagnostics helper).
func (t *Tree) All() []motion.State {
	var out []motion.State
	t.walkLeaves(t.root, func(e entry) {
		out = append(out, e.state())
	})
	return out
}

func (t *Tree) walkLeaves(pid storagePageID, fn func(entry)) {
	n := t.readNode(pid)
	for i := range n.entries {
		if n.leaf {
			fn(n.entries[i])
		} else {
			t.walkLeaves(n.entries[i].child, fn)
		}
	}
}

// deleteEps is the tolerance used when matching a stale movement during
// Delete; tpbr re-anchoring accumulates tiny floating-point drift.
const deleteEps = 1e-6

// Delete removes the movement s (as previously inserted) from the index.
// It reports whether the movement was found.
func (t *Tree) Delete(s motion.State) bool {
	found, _ := t.update(s, nil)
	return found
}

// Update replaces the movement old (as previously inserted) by nw — an
// object's re-report — in the descent that finds old. When nw still fits the
// bound its leaf has in its parent (a root leaf always does), the leaf entry
// is overwritten in place and the path's bounds are re-tightened on the way
// up, as Delete does; otherwise old is deleted and nw inserted. It reports
// whether old was found (if not, nothing changed) and whether nw took its
// place in the leaf.
func (t *Tree) Update(old, nw motion.State) (found, inPlace bool) {
	repl := leafEntry(nw)
	return t.update(old, &repl)
}

// update is Delete (repl nil) and Update: one descent to s's leaf entry,
// which is overwritten by repl when repl fits there, and removed otherwise —
// condensing underfull nodes and re-inserting their orphans — before repl,
// if any, is inserted from the root.
func (t *Tree) update(s motion.State, repl *entry) (found, inPlace bool) {
	target := leafEntry(s)
	found, _, underflow, placed, orphans := t.deleteRec(t.root, &target, repl, nil)
	if !found {
		return false, false
	}
	if placed {
		return true, true
	}
	t.size--
	root := t.readNode(t.root)
	if underflow && !root.leaf && len(root.entries) == 1 {
		// Shrink the tree: promote the only child.
		old := t.root
		t.root = root.entries[0].child
		t.pool.Free(old)
		t.height--
	}
	// Reinsert the leaf entries orphaned by condensed nodes.
	for _, e := range orphans {
		t.insertEntry(e)
	}
	if repl != nil {
		t.insertEntry(*repl)
		t.size++
	}
	return true, false
}

// deleteRec searches for target beneath pid, whose entry in its parent is pe
// (nil at the root). On success it returns the recomputed bound of pid's
// subtree, whether pid underflowed (root is exempt from minimum fill but
// still reports emptiness via underflow at caller), whether repl was placed
// where target was, and any orphaned leaf entries from condensed
// descendants. A placed path changed no node's entry count, so it reports no
// underflow at any level: an ancestor that was already underfull is left
// alone rather than condensed.
func (t *Tree) deleteRec(pid storagePageID, target, repl, pe *entry) (found bool, bound entry, underflow, placed bool, orphans []entry) {
	n := t.readNode(pid)
	if n.leaf {
		for i := range n.entries {
			if e := &n.entries[i]; e.obj == target.obj && e.ref == target.ref && entryClose(e, target) {
				if repl != nil && (pe == nil || pe.mayContain(repl, t.now)) {
					n.entries[i] = *repl
					t.mustWrite(pid, n)
					return true, t.boundOf(n, pid), false, true, nil
				}
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				t.mustWrite(pid, n)
				return true, t.boundOf(n, pid), len(n.entries) < t.minLeaf, false, nil
			}
		}
		return false, entry{}, false, false, nil
	}
	for i := range n.entries {
		c := &n.entries[i]
		if !c.mayContain(target, t.now) {
			continue
		}
		child := c.child // c dangles once entries shift below
		f, childBound, childUnder, placed, childOrphans := t.deleteRec(child, target, repl, c)
		if !f {
			continue
		}
		orphans = childOrphans
		if childUnder {
			// Condense: drop the child, orphan its remaining leaf entries.
			orphans = append(orphans, t.collectLeafEntries(child)...)
			t.freeSubtree(child)
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		} else {
			childBound.child = child
			n.entries[i] = childBound
		}
		t.mustWrite(pid, n)
		if len(n.entries) == 0 {
			return true, entry{ref: t.now}, true, false, orphans
		}
		return true, t.boundOf(n, pid), !placed && len(n.entries) < t.minInt, placed, orphans
	}
	return false, entry{}, false, false, nil
}

func (t *Tree) boundOf(n *node, pid storagePageID) entry {
	if len(n.entries) == 0 {
		return entry{ref: t.now, child: pid}
	}
	b := combineAll(n.entries, t.now)
	b.child = pid
	return b
}

func (t *Tree) collectLeafEntries(pid storagePageID) []entry {
	var out []entry
	t.walkLeaves(pid, func(e entry) { out = append(out, e) })
	return out
}

func (t *Tree) freeSubtree(pid storagePageID) {
	n := t.readNode(pid)
	if !n.leaf {
		for _, e := range n.entries {
			t.freeSubtree(e.child)
		}
	}
	t.pool.Free(pid)
}

// entryClose reports whether two leaf entries describe the same movement up
// to floating-point tolerance.
func entryClose(a, b *entry) bool {
	for d := 0; d < 2; d++ {
		if math.Abs(a.lo[d]-b.lo[d]) > deleteEps || math.Abs(a.vlo[d]-b.vlo[d]) > deleteEps {
			return false
		}
	}
	return true
}

// mayContain reports whether internal entry c could bound leaf entry e:
// position containment at the anchor time and velocity containment, with
// tolerance.
func (c *entry) mayContain(e *entry, now motion.Tick) bool {
	rc := now
	if e.ref > rc {
		rc = e.ref
	}
	if c.ref > rc {
		rc = c.ref
	}
	for d := 0; d < 2; d++ {
		p := e.loAt(d, rc)
		if p < c.loAt(d, rc)-deleteEps || p > c.hiAt(d, rc)+deleteEps {
			return false
		}
		if e.vlo[d] < c.vlo[d]-deleteEps || e.vhi[d] > c.vhi[d]+deleteEps {
			return false
		}
	}
	return true
}
