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
	target := leafEntry(s)
	found, _, underflow, orphans := t.deleteRec(t.root, &target)
	if !found {
		return false
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
	return true
}

// deleteRec searches for target beneath pid. On success it returns the
// recomputed bound of pid's subtree, whether pid underflowed (root is exempt
// from minimum fill but still reports emptiness via underflow at caller),
// and any orphaned leaf entries from condensed descendants.
func (t *Tree) deleteRec(pid storagePageID, target *entry) (found bool, bound entry, underflow bool, orphans []entry) {
	n := t.readNode(pid)
	if n.leaf {
		for i := range n.entries {
			if e := &n.entries[i]; e.obj == target.obj && e.ref == target.ref && entryClose(e, target) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				t.mustWrite(pid, n)
				return true, t.boundOf(n, pid), len(n.entries) < t.minLeaf, nil
			}
		}
		return false, entry{}, false, nil
	}
	for i := range n.entries {
		c := &n.entries[i]
		if !c.mayContain(target, t.now) {
			continue
		}
		child := c.child // c dangles once entries shift below
		f, childBound, childUnder, childOrphans := t.deleteRec(child, target)
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
			return true, entry{ref: t.now}, true, orphans
		}
		return true, t.boundOf(n, pid), len(n.entries) < t.minInt, orphans
	}
	return false, entry{}, false, nil
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
