package tprtree

import (
	"fmt"
	"math"

	"pdr/internal/motion"
)

// bulkFill is the target node occupancy of bulk loading, leaving headroom
// for subsequent inserts before splits cascade.
const bulkFill = 0.7

// BulkLoad builds the tree from scratch over the given movements using
// Sort-Tile-Recursive packing (leaves tiled by position at the tree's
// current time): vastly faster than one-at-a-time insertion for the initial
// dataset load, producing a well-clustered tree. The tree must be empty.
func (t *Tree) BulkLoad(states []motion.State) error {
	if t.size > 0 {
		return fmt.Errorf("tprtree: BulkLoad requires an empty tree (size %d)", t.size)
	}
	if len(states) == 0 {
		return nil
	}
	entries := make([]entry, len(states))
	for i, s := range states {
		entries[i] = leafEntry(s)
	}
	t.pool.Free(t.root) // drop the empty leaf from New

	level := t.packLevel(entries, true)
	height := 1
	for len(level) > 1 {
		level = t.packLevel(level, false)
		height++
	}
	t.root = level[0].child
	t.height = height
	t.size = len(states)
	return nil
}

// packLevel tiles entries into nodes of one level and returns the bound
// entries describing the new nodes. Every node it makes holds between the
// level's minimum fill and its fan-out: a slab too short to fill a node is
// merged into the slab before it, and a slab's trailing remainder is shared
// with the group before it (split in two when both halves reach the minimum,
// kept as one node otherwise).
func (t *Tree) packLevel(entries []entry, leaf bool) []entry {
	minFill := t.min(leaf)
	fill := int(float64(t.fan(leaf)) * bulkFill)
	if fill < minFill {
		fill = minFill
	}
	n := len(entries)
	nodes := (n + fill - 1) / fill
	if nodes == 1 {
		return []entry{t.packNode(entries, leaf)}
	}
	slabs := int(math.Ceil(math.Sqrt(float64(nodes))))
	perSlab := (n + slabs - 1) / slabs
	if perSlab < minFill {
		perSlab = minFill
	}

	sortEntries(entries, func(e entry) float64 { return e.loAt(0, t.now) })
	var out []entry
	for s := 0; s < n; {
		hi := s + perSlab
		if n-hi < minFill {
			hi = n
		}
		slab := entries[s:hi]
		s = hi
		sortEntries(slab, func(e entry) float64 { return e.loAt(1, t.now) })
		for o := 0; o < len(slab); {
			end := o + fill
			if rest := len(slab) - end; rest > 0 && rest < minFill {
				// The trailing remainder joins this group: two nodes when
				// both halves reach the minimum, one (at most 2·min
				// entries, within the fan-out) otherwise.
				if tail := len(slab) - o; tail >= 2*minFill {
					end = o + tail/2
				} else {
					end = len(slab)
				}
			}
			if end > len(slab) {
				end = len(slab)
			}
			out = append(out, t.packNode(slab[o:end], leaf))
			o = end
		}
	}
	return out
}

// packNode materializes one node from entries and returns its bound entry.
func (t *Tree) packNode(entries []entry, leaf bool) entry {
	n := &node{leaf: leaf, entries: append([]entry(nil), entries...)}
	id := t.newNode(n)
	b := combineAll(n.entries, t.now)
	b.child = id
	return b
}
