package geom

import (
	"slices"
	"sync"
)

// areaEvent is one vertical rectangle edge of the UnionArea sweep.
type areaEvent struct {
	x      float64
	y1, y2 int32 // compressed y index range [y1, y2)
	delta  int32 // +1 open, -1 close
}

// yEdge is one horizontal rectangle edge awaiting its compressed y index:
// events[ev] and events[ev+1] are the rectangle's open and close events, and
// top tells which of their two indices this coordinate is.
type yEdge struct {
	y   float64
	ev  int32
	top bool
}

// areaScratch is UnionArea's working memory. Every interval reply and every
// standing-query event measures a region, so the scratch is pooled like the
// kernels' (docs/PERFORMANCE.md): steady-state measuring allocates nothing.
type areaScratch struct {
	edges  []yEdge
	events []areaEvent
	tree   coverTree
}

var areaScratches = sync.Pool{New: func() any { return new(areaScratch) }}

// UnionArea computes the exact area of the union of a set of half-open
// rectangles (Klee's measure problem in two dimensions). It runs a vertical
// sweep over the x-extents of the rectangles and maintains the total covered
// y-length in a segment tree over the compressed y-coordinates, giving
// O(n log n) time. The y edges are sorted once, carrying their rectangle, so
// each gets its compressed index as the sort order is read off — no search
// per edge. Edges sharing an x may be applied in any order: the tree's state
// is a function of the set of open rectangles alone, and the covered length
// is read only after x advances.
func UnionArea(rects []Rect) float64 {
	sc := areaScratches.Get().(*areaScratch)
	edges, events := sc.edges[:0], sc.events[:0]
	for _, r := range rects {
		if r.IsEmpty() {
			continue
		}
		ev := int32(len(events))
		edges = append(edges, yEdge{r.MinY, ev, false}, yEdge{r.MaxY, ev, true})
		events = append(events, areaEvent{x: r.MinX, delta: +1}, areaEvent{x: r.MaxX, delta: -1})
	}
	var area float64
	if len(events) > 0 {
		slices.SortFunc(edges, func(a, b yEdge) int { return compareFloats(a.y, b.y) })
		ys := sc.tree.ys[:0]
		for i, e := range edges {
			// lint:ignore floateq compression merges only bit-identical
			// coordinates; epsilon would merge distinct cell edges.
			if i == 0 || e.y != edges[i-1].y {
				ys = append(ys, e.y)
			}
			idx := int32(len(ys) - 1)
			if e.top {
				events[e.ev].y2, events[e.ev+1].y2 = idx, idx
			} else {
				events[e.ev].y1, events[e.ev+1].y1 = idx, idx
			}
		}
		slices.SortFunc(events, func(a, b areaEvent) int { return compareFloats(a.x, b.x) })

		st := &sc.tree
		st.reset(ys)
		prevX := events[0].x
		for _, e := range events {
			if e.x > prevX {
				area += (e.x - prevX) * st.coveredLength()
				prevX = e.x
			}
			st.update(int(e.y1), int(e.y2), int(e.delta))
		}
	}
	sc.edges, sc.events = edges, events
	areaScratches.Put(sc)
	return area
}

// DisjointArea returns the area of a region whose rectangles are pairwise
// disjoint — every snapshot answer is, by construction: histogram cells,
// branch-and-bound boxes and sweep output tile without overlap, and
// CoalesceInPlace only merges abutting runs — as the plain sum of the rectangle areas: one
// linear pass where UnionArea sorts and sweeps. Overlapping input is counted
// once per rectangle; interval unions and set differences need UnionArea.
func DisjointArea(rects []Rect) float64 {
	var area float64
	for _, r := range rects {
		area += r.Area()
	}
	return area
}

// compareFloats orders rectangle coordinates without cmp.Compare's NaN
// branches: a NaN coordinate makes the area meaningless however it sorts.
func compareFloats(a, b float64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

func dedupFloat64s(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		// lint:ignore floateq dedup of sorted coordinates removes only
		// bit-identical neighbors; epsilon would merge distinct cell edges.
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out[:len(out):len(out)]
}

// coverTree is a segment tree over the elementary intervals between
// consecutive sorted y-coordinates. Each node tracks how many active
// rectangles fully cover its interval (cover) and the total length of its
// interval that is covered at least once (length). Because rectangles are
// inserted and removed in balanced pairs, cover counts never go negative.
type coverTree struct {
	ys    []float64
	cover []int
	len   []float64
}

// reset empties the tree over the sorted, distinct coordinates ys, reusing
// the node arrays' capacity.
func (t *coverTree) reset(ys []float64) {
	m := max(len(ys)-1, 1) // number of elementary intervals
	t.ys = ys
	if cap(t.cover) < 4*m {
		t.cover, t.len = make([]int, 4*m), make([]float64, 4*m)
		return
	}
	t.cover, t.len = t.cover[:4*m], t.len[:4*m]
	clear(t.cover)
	clear(t.len)
}

// update adds delta to the cover count of elementary intervals [l, r).
func (t *coverTree) update(l, r, delta int) {
	if l >= r {
		return
	}
	t.updateNode(1, 0, len(t.ys)-1, l, r, delta)
}

// updateNode requires [l, r) to overlap the node's [nodeL, nodeR); it only
// descends into children that [l, r) reaches.
func (t *coverTree) updateNode(node, nodeL, nodeR, l, r, delta int) {
	if l <= nodeL && nodeR <= r {
		t.cover[node] += delta
	} else {
		mid := (nodeL + nodeR) / 2
		if l < mid {
			t.updateNode(2*node, nodeL, mid, l, r, delta)
		}
		if r > mid {
			t.updateNode(2*node+1, mid, nodeR, l, r, delta)
		}
	}
	// Recompute covered length of this node.
	switch {
	case t.cover[node] > 0:
		t.len[node] = t.ys[nodeR] - t.ys[nodeL]
	case nodeR-nodeL == 1:
		t.len[node] = 0
	default:
		t.len[node] = t.len[2*node] + t.len[2*node+1]
	}
}

func (t *coverTree) coveredLength() float64 {
	return t.len[1]
}
