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
// same holds in Y: the band's Y values are kept as one ascending slice, and
// the Y sweep is a two-pointer walk over it, linear in the band.
//
// The walk runs only where the dense Y set can change. Between walks the
// sweep keeps the last dense segments and two sound bounds on them — the
// lowest depth on a segment, the highest off one — and moves the bounds per
// object that enters or leaves, in O(log segments): an object whose row
// interval lies inside one segment cannot change an entry's answer, nor one
// that meets no segment an exit's. A count of the band's objects that cover
// the whole row settles the row as one segment outright. An X step whose
// segments equal the last step's extends that step's rectangles instead of
// starting new ones, which is what the cell's union would have merged them
// into. So the band's sorted Y values are brought up to date, and walked,
// only at the events a bound cannot settle — on the engine's clustered input
// a minority of the dense ones.
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
// Allocation model: a run needs four scratch slices (the X-ordered points,
// the band's Y values, the kept dense Y segments and a walk's) whose sizes
// depend only on the point count. A query refines dozens of runs and the
// parallel engine refines runs from many queries at once, so the scratch
// lives in a sync.Pool of per-worker sweeper structs: each call checks one
// out, grows its buffers as needed, and returns it — steady-state refinement
// allocates only the output region.
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
	segs []segment    // the dense Y segments of the current X step
	walk []segment    // sweepY's segments, before they replace segs

	lo, hi int // the index range ys currently holds

	// The row [yb, yt) and what is known of its depths between walks: every
	// point of segs has depth at least onMin, every other point of the row
	// at most offMax (none and -none when there is no such point), and
	// whole of the band's objects cover the whole row.
	yb, yt, half  float64
	onMin, offMax int
	whole         int

	walks, dense int // Y walks run, and dense X steps swept, by the last run
}

// none stands for "no depth": the bounds over an empty set of points. It is
// far from any depth, and a run moves a bound at most once per object.
const none = math.MaxInt32

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
	out, _ := denseRectsRow(points, cells, rho, l, false)
	return out
}

// DenseRectsRowSorted is DenseRectsRow for points already in ascending X
// order: it sweeps them where they are, with no copy and no sort, and does
// not modify them. The sweep depends only on the point multiset, so the
// result is DenseRectsRow's, bit for bit. It also returns how many Y walks
// the sweep ran: the dense X steps no bound could settle.
func DenseRectsRowSorted(points []geom.Point, cells []geom.Rect, rho, l float64) (geom.Region, int) {
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

func denseRectsRow(points []geom.Point, cells []geom.Rect, rho, l float64, sorted bool) (geom.Region, int) {
	if len(cells) == 0 || l <= 0 {
		return nil, 0
	}
	for i, c := range cells[1:] {
		// lint:ignore floateq a row is one histogram row: its cells carry
		// the same Y edges bit for bit, or the caller mixed rows.
		if c.MinY != cells[0].MinY || c.MaxY != cells[0].MaxY || c.MinX < cells[i].MaxX {
			panic("sweep: DenseRectsRow cells are not one left-to-right row")
		}
	}
	// Object-count threshold: |L| >= rho*l^2, compared in float first — a
	// huge rho would overflow the conversion to int.
	need := math.Ceil(rho * l * l)
	if need <= 0 {
		// Everything is dense, including empty space.
		out := make(geom.Region, 0, len(cells))
		for _, c := range cells {
			out.Add(c)
		}
		return out, 0
	}
	if !(need <= float64(len(points))) || !(cells[0].MinY < cells[0].MaxY) {
		// Fewer objects than one square needs (need may be +Inf or NaN), or
		// a row with no points in it.
		return nil, 0
	}
	sw := sweepers.Get().(*sweeper)
	if sorted {
		sw.pts = points
	} else {
		sw.buf = append(sw.buf[:0], points...)
		SortByX(sw.buf)
		sw.pts = sw.buf
	}
	out := sw.denseRectsRow(cells, int(need), l/2)
	walks := sw.walks
	sw.pts = nil // the pool must not pin a caller's points
	sweepers.Put(sw)
	return out, walks
}

func (sw *sweeper) denseRectsRow(cells []geom.Rect, threshold int, half float64) geom.Region {
	pts := sw.pts
	sw.lo, sw.hi = 0, 0
	sw.yb, sw.yt, sw.half = cells[0].MinY, cells[0].MaxY, half
	// The band starts empty: nothing is dense, every depth is 0.
	sw.segs, sw.onMin, sw.offMax, sw.whole = sw.segs[:0], none, 0, 0
	sw.walks, sw.dense = 0, 0

	var out geom.Region
	n := len(pts)
	// pa objects have entered the band at the current x and pb have left it;
	// both only ever move right, through every cell of the run.
	pa, pb := 0, 0
	for _, c := range cells {
		start := len(out)
		// open counts the rectangles at out's end that the previous X step of
		// this cell emitted, one per segment of segs: an unchanged step
		// extends them.
		open := 0
		for x := c.MinX; x < c.MaxX; {
			a0, b0 := pa, pb
			for pa < n && pts[pa].X-half <= x {
				pa++
			}
			for pb < n && pts[pb].X+half <= x {
				pb++
			}
			// pts[a0:pb] entered and left between two steps: they were
			// never in the band where a step could see them.
			for _, p := range pts[max(a0, pb):pa] {
				sw.enter(p.Y)
			}
			for _, p := range pts[b0:min(pb, a0)] {
				sw.leave(p.Y)
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
			if sw.settle(pb, pa, threshold) || open == 0 {
				for _, seg := range sw.segs {
					out = append(out, geom.NewRect(x, seg.lo, next, seg.hi))
				}
				open = len(sw.segs)
			} else {
				for i := len(out) - open; i < len(out); i++ {
					out[i].MaxX = next
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

// settle brings segs to the band pts[pb:pa]'s dense Y set, walking the band
// only when the whole-row count and the depth bounds leave it open, and
// reports whether segs changed.
func (sw *sweeper) settle(pb, pa, threshold int) bool {
	count := pa - pb
	if count < threshold {
		// Nothing is dense, and no depth exceeds the band.
		changed := len(sw.segs) > 0
		sw.segs, sw.onMin, sw.offMax = sw.segs[:0], none, count
		return changed
	}
	sw.dense++
	if sw.whole >= threshold {
		// The row is one segment; every depth is at least whole.
		sw.offMax = -none
		if row := (segment{sw.yb, sw.yt}); len(sw.segs) != 1 || sw.segs[0] != row {
			sw.segs, sw.onMin = append(sw.segs[:0], row), sw.whole
			return true
		}
		sw.onMin = max(sw.onMin, sw.whole)
		return false
	}
	if sw.onMin >= threshold && min(sw.offMax, count) < threshold {
		return false
	}
	sw.walks++
	walk := sw.sweepY(sw.band(pb, pa), threshold)
	// == on the edges is bit equality here: an edge is yb, yt or some
	// ys[i]±half, and only yb or yt itself can be a negative zero.
	changed := !slices.Equal(walk, sw.segs)
	sw.segs, sw.walk = walk, sw.segs
	return changed
}

// rowSpan returns the part [a, b) of the row that an object at y covers (it
// covers none when a >= b), and whether it covers all of it. The edges are
// the Y walk's own enter and exit coordinates, bit for bit.
func (sw *sweeper) rowSpan(y float64) (a, b float64, whole bool) {
	lo, hi := y-sw.half, y+sw.half
	return max(lo, sw.yb), min(hi, sw.yt), lo <= sw.yb && hi >= sw.yt
}

// enter accounts for an object joining the band: it raises every depth of
// its span by one, which changes the dense set only off the segments.
func (sw *sweeper) enter(y float64) {
	a, b, whole := sw.rowSpan(y)
	if whole {
		sw.whole++
	}
	if a < b {
		if k := sw.segAfter(a); k == len(sw.segs) || a < sw.segs[k].lo || sw.segs[k].hi < b {
			sw.offMax++
		}
	}
}

// leave accounts for an object leaving the band: it lowers every depth of
// its span by one, which changes the dense set only on the segments.
func (sw *sweeper) leave(y float64) {
	a, b, whole := sw.rowSpan(y)
	if whole {
		sw.whole--
	}
	if a < b {
		if k := sw.segAfter(a); k < len(sw.segs) && sw.segs[k].lo < b {
			sw.onMin--
		}
	}
}

// segAfter returns the first segment ending beyond y, or len(segs): the one
// segment that can hold, or be the first to meet, a span starting at y.
func (sw *sweeper) segAfter(y float64) int {
	segs := sw.segs
	lo, hi := 0, len(segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if segs[m].hi > y {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// band returns the Y values of pts[lo:hi] in ascending order. Successive
// calls within a run only move lo and hi forward, so the slice held from the
// previous call is updated — one binary search and one memmove per object
// that left or joined — unless the two ranges share nothing, in which case
// it is rebuilt by a sort. The band is brought up to date only here, at the
// X events that walk it, never per event.
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
// band's ascending Y values, returning maximal dense segments within the row
// [yb, yt) and setting onMin and offMax to the lowest depth on them and the
// highest off them. Object i covers [ys[i]-half, ys[i]+half), and both ends
// ascend with i, so pa objects have entered and pb have left at the current
// y. The walk starts at its row: two binary searches place both pointers at
// yb, so the objects that entered below the row — about l/(l+cell) of the
// band — are not stepped over one at a time. The returned slice is the
// sweeper's walk scratch.
func (sw *sweeper) sweepY(ys []float64, threshold int) []segment {
	segs := sw.walk[:0]
	yt, half := sw.yt, sw.half
	onMin, offMax := none, -none
	n := len(ys)
	pa, pb := firstAfter(ys, -half, sw.yb), firstAfter(ys, half, sw.yb)
	dense := false // the step that ended at y was dense: the run continues
	for y := sw.yb; y < yt; {
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
		switch depth := pa - pb; {
		case depth < threshold:
			dense = false
			offMax = max(offMax, depth)
		case dense:
			segs[len(segs)-1].hi = next
			onMin = min(onMin, depth)
		default:
			segs = append(segs, segment{y, next})
			dense = true
			onMin = min(onMin, depth)
		}
		y = next
	}
	sw.onMin, sw.offMax = onMin, offMax
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
