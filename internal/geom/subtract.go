package geom

import (
	"math"
	"slices"
)

// SubtractRect returns r \ s as up to four disjoint rectangles.
func SubtractRect(r, s Rect) Region { return appendSubtractRect(nil, r, s) }

// appendSubtractRect appends SubtractRect(r, s) to dst.
func appendSubtractRect(dst Region, r, s Rect) Region {
	if r.IsEmpty() {
		return dst
	}
	ov := r.Intersect(s)
	if ov.IsEmpty() {
		return append(dst, r)
	}
	if ov == r {
		return dst
	}
	// Bottom band.
	dst.Add(Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: ov.MinY})
	// Top band.
	dst.Add(Rect{MinX: r.MinX, MinY: ov.MaxY, MaxX: r.MaxX, MaxY: r.MaxY})
	// Left and right slivers of the middle band.
	dst.Add(Rect{MinX: r.MinX, MinY: ov.MinY, MaxX: ov.MinX, MaxY: ov.MaxY})
	dst.Add(Rect{MinX: ov.MaxX, MinY: ov.MinY, MaxX: r.MaxX, MaxY: ov.MaxY})
	return dst
}

// Subtract returns a region covering exactly the points of g not covered by
// h. The result is built by iterated rectangle subtraction and compacted
// with CoalesceInPlace over the call's own pieces; it is exact under the
// half-open convention.
func Subtract(g, h Region) Region {
	grid := newCutterGrid(h)
	pieces := make(Region, 0, len(g))
	var cutters []int32
	var cur, next Region
	for _, r := range g {
		if r.IsEmpty() {
			continue
		}
		// Cut r by the rectangles of h that meet it, in h's order: a
		// rectangle that misses r misses every piece of it, and
		// SubtractRect returns a missed piece unchanged.
		cutters = grid.cutters(r, cutters)
		cur = append(cur[:0], r)
		for _, i := range cutters {
			next = next[:0]
			for _, p := range cur {
				next = appendSubtractRect(next, p, grid.rects[i])
			}
			cur, next = next, cur
			if len(cur) == 0 {
				break
			}
		}
		pieces = append(pieces, cur...)
	}
	return CoalesceInPlace(pieces)
}

// subtractGrid is the side of the uniform grid Subtract buckets the
// subtrahend's rectangles on.
const subtractGrid = 256

// cutterGrid buckets a region's non-empty rectangles on a subtractGrid ×
// subtractGrid grid over their bounds, so Subtract cuts each rectangle of
// the minuend only by the ones that can meet it.
type cutterGrid struct {
	rects  Region
	bounds Rect
	// sx and sy are grid cells per unit length; 0 when the bounds are not
	// finite, and then every query scans all rects.
	sx, sy float64
	// Cell c holds rects[items[head[c]:head[c+1]]], in ascending index.
	head, items []int32
	// wide are the rectangles over more than subtractGrid cells, tested
	// against every query instead of bucketed, so the cells hold at most
	// subtractGrid entries per rectangle however much the rectangles overlap.
	wide []int32
	// stamp[i] is the last query that met rects[i] in a cell.
	stamp []int32
	query int32
}

// newCutterGrid indexes h's non-empty rectangles, keeping h's order.
func newCutterGrid(h Region) *cutterGrid {
	x := &cutterGrid{}
	for _, b := range h {
		x.rects.Add(b)
	}
	x.bounds = x.rects.Bounds()
	x.sx = gridScale(x.bounds.MaxX - x.bounds.MinX)
	x.sy = gridScale(x.bounds.MaxY - x.bounds.MinY)
	if x.sx == 0 || x.sy == 0 {
		x.sx, x.sy = 0, 0
		return x
	}
	const n = subtractGrid * subtractGrid
	x.head = make([]int32, n+1)
	for i, b := range x.rects {
		if x.isWide(b) {
			x.wide = append(x.wide, int32(i))
			continue
		}
		x.cells(b, func(c int) { x.head[c+1]++ })
	}
	for c := 1; c <= n; c++ {
		x.head[c] += x.head[c-1]
	}
	x.items = make([]int32, x.head[n])
	fill := slices.Clone(x.head[:n])
	for i, b := range x.rects {
		if !x.isWide(b) {
			x.cells(b, func(c int) {
				x.items[fill[c]] = int32(i)
				fill[c]++
			})
		}
	}
	x.stamp = make([]int32, len(x.rects))
	return x
}

// gridScale is the cells per unit length over an extent, or 0 when the
// extent is not a positive finite width the grid can divide.
func gridScale(extent float64) float64 {
	s := subtractGrid / extent
	if !(s > 0) || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// span returns the inclusive cell range of r, which lies inside the bounds.
func (x *cutterGrid) span(r Rect) (x0, x1, y0, y1 int) {
	return gridCell(r.MinX-x.bounds.MinX, x.sx), gridCell(r.MaxX-x.bounds.MinX, x.sx),
		gridCell(r.MinY-x.bounds.MinY, x.sy), gridCell(r.MaxY-x.bounds.MinY, x.sy)
}

// isWide reports whether r, inside the bounds, spans more than subtractGrid
// cells.
func (x *cutterGrid) isWide(r Rect) bool {
	x0, x1, y0, y1 := x.span(r)
	return (x1-x0+1)*(y1-y0+1) > subtractGrid
}

// cells calls fn with every cell of r's span; r lies inside the bounds.
func (x *cutterGrid) cells(r Rect, fn func(c int)) {
	x0, x1, y0, y1 := x.span(r)
	for cy := y0; cy <= y1; cy++ {
		for c := cy*subtractGrid + x0; c <= cy*subtractGrid+x1; c++ {
			fn(c)
		}
	}
}

// gridCell is the cell of an offset 0 ≤ d ≤ extent from the bounds' low
// edge. It is monotone in d, so a point common to two rectangles lies in a
// cell both spans include.
func gridCell(d, scale float64) int {
	f := d * scale
	if f >= subtractGrid-1 {
		return subtractGrid - 1
	}
	return int(f)
}

// cutters returns, in out's storage and in ascending order, the indices of
// the rectangles that intersect r.
func (x *cutterGrid) cutters(r Rect, out []int32) []int32 {
	out = out[:0]
	if x.sx == 0 || math.IsNaN(r.MinX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxX) || math.IsNaN(r.MaxY) {
		for i, b := range x.rects {
			if r.Intersects(b) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	clip := r.Intersect(x.bounds)
	if clip.IsEmpty() {
		return out
	}
	for _, i := range x.wide {
		if r.Intersects(x.rects[i]) {
			out = append(out, i)
		}
	}
	x.query++
	x.cells(clip, func(c int) {
		for _, i := range x.items[x.head[c]:x.head[c+1]] {
			if x.stamp[i] != x.query {
				x.stamp[i] = x.query
				if r.Intersects(x.rects[i]) {
					out = append(out, i)
				}
			}
		}
	})
	slices.Sort(out)
	return out
}
