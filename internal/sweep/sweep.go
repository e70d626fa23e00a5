// Package sweep implements the refinement step of the PDR paper's exact
// filtering-refinement method (Sec. 5.3): a plane-sweep over the objects
// retrieved for candidate cells that outputs every pointwise-dense rectangle
// inside each cell.
//
// The sweep follows Algorithms 2 and 3 of the paper. An l-band (width l)
// sweeps along the X dimension; its center-line stopping events are the
// points where the band's left or right edge touches an object. Between
// consecutive events the set of objects in the band — and therefore the
// density of every point with that X coordinate (Lemma 1) — is constant.
// Whenever the band holds at least ceil(rho*l^2) objects, an l-square sweeps
// the band along Y (Lemma 2), emitting half-open dense rectangles
// [xi, xi+1) x [yj, yj+1).
//
// Half-open semantics: an object q is inside the l-square neighborhood of p
// iff p.x - l/2 < q.x <= p.x + l/2 (same in y), so the band at center x
// contains q iff x is in [q.x - l/2, q.x + l/2): the object enters when the
// band's right edge reaches it and leaves when the left edge reaches it.
//
// One order serves enter and exit. Every square has the same edge l, and
// q.x - l/2 and q.x + l/2 are both monotone in q.x (floating-point rounding
// is monotone too), so with the points sorted by X once, the objects enter
// in index order and leave in index order: the band is always an index range
// pts[pb:pa], the X events come from a two-pointer merge of the two implicit
// coordinate sequences, and nothing is sorted inside the event loop. The
// same holds in Y: the band's Y values are kept as one ascending slice,
// moved forward by a binary-search insert or remove per object, and the Y
// sweep is a two-pointer walk over it — linear in the band per X event.
//
// The unit of work is a row run: candidate cells of one histogram row, left
// to right. Neighbouring cells' grown windows overlap almost entirely, so
// the run takes the union of the windows in X order once and carries the
// band across cell boundaries, while the rectangles are still produced —
// split at the same events, coalesced over the same set — cell by cell. A
// caller that already holds the points in X order (the engine merges each
// run's out of a snapshot's row bins, each sorted once) passes them to
// DenseRectsRowSorted, which reads them in place.
//
// Allocation model: a run needs three scratch slices (the X-ordered points,
// the band's Y values, the dense Y segments of one event) whose sizes depend
// only on the point count. A query refines dozens of runs and the parallel
// engine refines runs from many queries at once, so the scratch lives in a
// sync.Pool of per-worker sweeper structs: each call checks one out, grows
// its buffers as needed, and returns it — steady-state refinement allocates
// only the output region.
package sweep

import (
	"math"
	"slices"
	"sort"
	"sync"

	"pdr/internal/geom"
)

// sweeper holds the reusable scratch of one plane-sweep worker. The zero
// value is ready to use; buffers grow to the high-water mark of the runs a
// worker has refined and are reused across calls.
type sweeper struct {
	buf  []geom.Point // DenseRectsRow's sorted copy of its points
	pts  []geom.Point // the run's points in X order (buf, or the caller's)
	ys   []float64    // Y values of pts[lo:hi], ascending
	segs []segment

	lo, hi int // the index range ys currently holds
}

// sweepers pools sweeper scratch across goroutines; see the package comment.
var sweepers = sync.Pool{New: func() any { return new(sweeper) }}

// DenseRects returns the union of all rho-dense rectangles whose points lie
// inside the half-open window cell, given the locations (at query time) of
// every object whose l-square influence can reach the cell — i.e. all
// objects inside cell.Grow(l/2); passing more is harmless. The result is
// exact. DenseRects is the one-cell case of DenseRectsRow and, like it, safe
// for concurrent use.
func DenseRects(points []geom.Point, cell geom.Rect, rho, l float64) geom.Region {
	return DenseRectsRow(points, []geom.Rect{cell}, rho, l)
}

// DenseRectsRow refines a row run: cells share one Y extent and follow each
// other left to right without overlapping (gaps are fine; it panics
// otherwise), and points holds every object inside the union of the cells'
// grown windows c.Grow(l/2). The result is, bit for bit, the concatenation
// in cell order of what refining each cell alone over the objects of its own
// closed grown window returns — each cell's rectangles split at that
// window's events and coalesced on their own — at the cost of one sort and
// one pass of the band over the whole run.
//
// A cell sees the whole run's objects, and that changes nothing: an object
// left of the window has X < fl(MinX - l/2), so X + l/2 < MinX in exact
// arithmetic (the rounding of MinX - l/2 is at most half the gap to the next
// float below it), and fl(X + l/2) <= MinX because rounding is monotone and
// MinX is a float — it has left the band before the cell begins and puts no
// event inside it. Mirror images hold on the right and in Y.
//
// Safe for concurrent use; concurrent calls draw scratch from a shared pool.
func DenseRectsRow(points []geom.Point, cells []geom.Rect, rho, l float64) geom.Region {
	return denseRectsRow(points, cells, rho, l, false)
}

// DenseRectsRowSorted is DenseRectsRow for points already in ascending X
// order: it sweeps them where they are, with no copy and no sort, and does
// not modify them. The sweep depends only on the point multiset, so the
// result is DenseRectsRow's, bit for bit.
func DenseRectsRowSorted(points []geom.Point, cells []geom.Rect, rho, l float64) geom.Region {
	return denseRectsRow(points, cells, rho, l, true)
}

// SortByX sorts points by ascending X, the order DenseRectsRowSorted reads.
func SortByX(points []geom.Point) {
	slices.SortFunc(points, func(a, b geom.Point) int {
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		}
		return 0
	})
}

func denseRectsRow(points []geom.Point, cells []geom.Rect, rho, l float64, sorted bool) geom.Region {
	if len(cells) == 0 || l <= 0 {
		return nil
	}
	for i, c := range cells[1:] {
		// lint:ignore floateq a row is one histogram row: its cells carry
		// the same Y edges bit for bit, or the caller mixed rows.
		if c.MinY != cells[0].MinY || c.MaxY != cells[0].MaxY || c.MinX < cells[i].MaxX {
			panic("sweep: DenseRectsRow cells are not one left-to-right row")
		}
	}
	// Integer object-count threshold: |L| >= rho*l^2.
	threshold := int(math.Ceil(rho * l * l))
	if threshold <= 0 {
		// Everything is dense, including empty space.
		out := make(geom.Region, 0, len(cells))
		for _, c := range cells {
			out.Add(c)
		}
		return out
	}
	if len(points) < threshold {
		return nil
	}
	sw := sweepers.Get().(*sweeper)
	if sorted {
		sw.pts = points
	} else {
		sw.buf = append(sw.buf[:0], points...)
		SortByX(sw.buf)
		sw.pts = sw.buf
	}
	out := sw.denseRectsRow(cells, threshold, l/2)
	sw.pts = nil // the pool must not pin a caller's points
	sweepers.Put(sw)
	return out
}

func (sw *sweeper) denseRectsRow(cells []geom.Rect, threshold int, half float64) geom.Region {
	pts := sw.pts
	sw.lo, sw.hi = 0, 0

	var out geom.Region
	n := len(pts)
	// pa objects have entered the band at the current x and pb have left it;
	// both only ever move right, through every cell of the run.
	pa, pb := 0, 0
	for _, c := range cells {
		start := len(out)
		for x := c.MinX; x < c.MaxX; {
			for pa < n && pts[pa].X-half <= x {
				pa++
			}
			for pb < n && pts[pb].X+half <= x {
				pb++
			}
			// The next event: the first enter or exit coordinate beyond x,
			// or the cell's edge.
			next := c.MaxX
			if pa < n && pts[pa].X-half < next {
				next = pts[pa].X - half
			}
			if pb < n && pts[pb].X+half < next {
				next = pts[pb].X + half
			}
			if pa-pb >= threshold {
				for _, seg := range sw.sweepY(sw.band(pb, pa), c.MinY, c.MaxY, threshold, half) {
					out.Add(geom.NewRect(x, seg.lo, next, seg.hi))
				}
			}
			x = next
		}
		// The cell's rectangles are appended fresh above, so their union
		// coalesces in place, inside out's tail.
		out = out[:start+len(geom.CoalesceInPlace(out[start:]))]
	}
	return out
}

// band returns the Y values of pts[lo:hi] in ascending order. Successive
// calls within a run only move lo and hi forward, so the slice held from the
// previous call is updated — one binary search and one memmove per object
// that left or joined — unless the two ranges share nothing, in which case
// it is rebuilt by a sort. The band is brought up to date only here, at the
// X events dense enough to need it, never per event.
func (sw *sweeper) band(lo, hi int) []float64 {
	ys := sw.ys
	if lo >= sw.hi {
		ys = ys[:0]
		for _, p := range sw.pts[lo:hi] {
			ys = append(ys, p.Y)
		}
		slices.Sort(ys)
	} else {
		for _, p := range sw.pts[sw.lo:lo] {
			i := sort.SearchFloat64s(ys, p.Y)
			ys = append(ys[:i], ys[i+1:]...)
		}
		for _, p := range sw.pts[sw.hi:hi] {
			i := sort.SearchFloat64s(ys, p.Y)
			ys = append(ys, 0)
			copy(ys[i+1:], ys[i:])
			ys[i] = p.Y
		}
	}
	sw.ys, sw.lo, sw.hi = ys, lo, hi
	return ys
}

// segment is a half-open dense Y interval [lo, hi).
type segment struct{ lo, hi float64 }

// sweepY runs the Y-dimension l-square sweep (paper Algorithm 3) over the
// band's ascending Y values, returning maximal dense segments within
// [yb, yt). Object i covers [ys[i]-half, ys[i]+half), and both ends ascend
// with i, so pa objects have entered and pb have left at the current y. The
// walk starts at its row: two binary searches place both pointers at yb, so
// the objects that entered below the row — about l/(l+cell) of the band —
// are not stepped over one at a time on every dense X event. The returned
// slice is the sweeper's scratch — valid until the next sweepY.
func (sw *sweeper) sweepY(ys []float64, yb, yt float64, threshold int, half float64) []segment {
	segs := sw.segs[:0]
	n := len(ys)
	pa, pb := firstAfter(ys, -half, yb), firstAfter(ys, half, yb)
	dense := false // the step that ended at y was dense: the run continues
	for y := yb; y < yt; {
		for pa < n && ys[pa]-half <= y {
			pa++
		}
		for pb < n && ys[pb]+half <= y {
			pb++
		}
		next := yt
		if pa < n && ys[pa]-half < next {
			next = ys[pa] - half
		}
		if pb < n && ys[pb]+half < next {
			next = ys[pb] + half
		}
		switch {
		case pa-pb < threshold:
			dense = false
		case dense:
			segs[len(segs)-1].hi = next
		default:
			segs = append(segs, segment{y, next})
			dense = true
		}
		y = next
	}
	sw.segs = segs
	return segs
}

// firstAfter returns the first i with ys[i]+d > y, or len(ys): ys ascends,
// and so does ys[i]+d, rounding being monotone. With d = -half it is where
// the Y walk's enter pointer stands at y (ys[i]+(-half) is ys[i]-half, bit
// for bit), with d = +half its exit pointer.
func firstAfter(ys []float64, d, y float64) int {
	lo, hi := 0, len(ys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ys[m]+d > y {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
