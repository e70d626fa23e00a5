package geom

import (
	"slices"
	"sync"
)

// CoalesceInPlace returns a compacted region covering exactly the same point
// set: rectangles that abut horizontally with identical Y extents are merged
// into runs, and runs that abut vertically with identical X extents are
// stacked. Query answers produced cell-by-cell (the FR refinement, the PA
// branch-and-bound) shrink dramatically — often by an order of magnitude —
// which speeds up every downstream area computation.
//
// The input rectangles are assumed non-overlapping or exactly aligned (true
// for all query outputs in this module); overlapping inputs are still
// covered correctly but may not reach the minimal form.
//
// g must be the caller's own: the working set is compacted, sorted, and
// merged inside g itself, so steady-state coalescing allocates nothing. The
// input is consumed — its contents are unspecified afterwards and the result
// aliases it. Regions built per call (the FR refinement union, the PA
// branch-and-bound output, the interval merge, Subtract's pieces) qualify;
// a region the engine has handed out is read-only and never is.
func CoalesceInPlace(g Region) Region {
	if len(g) < 2 {
		return g
	}
	work := g[:0]
	for _, r := range g {
		if !r.IsEmpty() {
			work = append(work, r)
		}
	}
	sortBands(work)
	return CoalesceBandOrdered(work)
}

// CoalesceBandOrdered is CoalesceInPlace for a caller whose rectangles are
// already in pass 1's order — ascending (MinY, MaxY, MinX), none empty — and
// so skips pass 1's sort: the PA branch-and-bound knows each emitted box's
// band and orders them by counting. The input is consumed and the result
// aliases it, as with CoalesceInPlace; for disjoint rectangles it is
// CoalesceInPlace's result rectangle for rectangle.
func CoalesceBandOrdered(g Region) Region {
	return stackColumns(MergeBandOrdered(g, nil))
}

// ColumnSpan names a rectangle's MinX and MaxX by integers that order as the
// floats do: what MergeBandOrdered carries through pass 1 for a caller that
// puts pass 2 in order by counting instead of comparing.
type ColumnSpan struct{ Min, Max int32 }

// MergeBandOrdered is CoalesceBandOrdered's pass 1 alone: touching runs of
// one (MinY, MaxY) band of g, which must be in pass 1's order, become one
// rectangle, in place. It returns the merged prefix. cols, unless nil, holds
// g[i]'s column names in cols[i] and is compacted with g: a merged run keeps
// its first rectangle's Min and takes its last one's Max. Ordering the runs
// by (Min, Max), stably, then puts them in pass 2's order for
// StackColumnOrdered.
func MergeBandOrdered(g Region, cols []ColumnSpan) Region {
	if len(g) < 2 {
		return g
	}
	merged := g[:1]
	for i, r := range g[1:] {
		last := &merged[len(merged)-1]
		// lint:ignore floateq runs may merge only when their band edges are
		// bit-identical; an epsilon would grow the covered point set.
		if r.MinY == last.MinY && r.MaxY == last.MaxY && r.MinX <= last.MaxX {
			if r.MaxX > last.MaxX {
				last.MaxX = r.MaxX
				if cols != nil {
					cols[len(merged)-1].Max = cols[i+1].Max
				}
			}
		} else {
			if cols != nil {
				cols[len(merged)] = cols[i+1]
			}
			merged = append(merged, r)
		}
	}
	return merged
}

// compare3 orders by three keys in turn: as cmp.Compare would for every
// number, without its NaN branches (a NaN coordinate bounds no point set,
// and no caller builds one).
func compare3(a1, b1, a2, b2, a3, b3 float64) int {
	switch {
	case a1 < b1:
		return -1
	case a1 > b1:
		return 1
	case a2 < b2:
		return -1
	case a2 > b2:
		return 1
	case a3 < b3:
		return -1
	case a3 > b3:
		return 1
	}
	return 0
}

// sortBands puts work in pass 1's order: by (MinY, MaxY, MinX).
func sortBands(work Region) {
	slices.SortFunc(work, func(a, b Rect) int {
		return compare3(a.MinY, b.MinY, a.MaxY, b.MaxY, a.MinX, b.MinX)
	})
}

// mergeBands is pass 1: sort by (MinY, MaxY, MinX) and merge horizontal runs
// within (MinY, MaxY) bands, in place. It returns the merged prefix.
func mergeBands(work Region) Region {
	sortBands(work)
	return MergeBandOrdered(work, nil)
}

// stackColumns is pass 2: sort by (MinX, MaxX, MinY) and stack vertical runs
// with identical X extents, in place. It returns the stacked prefix.
func stackColumns(merged Region) Region {
	slices.SortFunc(merged, func(a, b Rect) int {
		return compare3(a.MinX, b.MinX, a.MaxX, b.MaxX, a.MinY, b.MinY)
	})
	return StackColumnOrdered(merged)
}

// StackColumnOrdered is pass 2 without its sort, for runs already in pass
// 2's order — ascending (MinX, MaxX, MinY): vertical runs with identical X
// extents are stacked, in place. It returns the stacked prefix; the runs of
// CoalesceBandOrdered's pass 1 in this order stack to its result rectangle
// for rectangle.
func StackColumnOrdered(merged Region) Region {
	if len(merged) < 2 {
		return merged
	}
	out := merged[:1]
	for _, r := range merged[1:] {
		last := &out[len(out)-1]
		// lint:ignore floateq runs may stack only when their X extents are
		// bit-identical; an epsilon would grow the covered point set.
		if r.MinX == last.MinX && r.MaxX == last.MaxX && r.MinY <= last.MaxY {
			if r.MaxY > last.MaxY {
				last.MaxY = r.MaxY
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// CoalesceSplit is CoalesceInPlace with each pass split n ways: forEach must
// call fn(i) once for every i in [0, n) — concurrently or not — and return
// when all calls have. A pass merges only rectangles that share its leading
// sort key (pass 1 equal MinY, pass 2 equal MinX), so it cuts the rectangles
// into n ranges of that key, and sorts and merges each range on its own; the
// ranges ascend, so their concatenation is the whole pass's sorted order.
//
// For disjoint rectangles — every snapshot answer, which is why the FR
// engine uses it — no two share all three sort keys (they would share a
// corner point), so the sorted order is unique and the result is
// CoalesceInPlace's rectangle for rectangle, at any n. Overlapping inputs
// are still covered exactly, as by CoalesceInPlace.
func CoalesceSplit(g Region, n int, forEach func(n int, fn func(i int))) Region {
	if n < 2 || len(g) < 2*n {
		return CoalesceInPlace(g)
	}
	work := g[:0]
	for _, r := range g {
		if !r.IsEmpty() {
			work = append(work, r)
		}
	}
	sb := splitScratches.Get().(*splitScratch)
	defer splitScratches.Put(sb)
	work = work[:sb.pass(work, n, forEach, func(r Rect) float64 { return r.MinY }, mergeBands)]
	return work[:sb.pass(work, n, forEach, func(r Rect) float64 { return r.MinX }, stackColumns)]
}

// splitScratch is CoalesceSplit's working memory: the rectangles scattered
// into key ranges, the sampled keys and pivots, each range's bounds, and a
// cursor per range.
type splitScratch struct {
	buf            Region
	sample, pivots []float64
	bounds, cur    []int
}

var splitScratches = sync.Pool{New: func() any { return new(splitScratch) }}

// pass scatters work into n ascending ranges of key, merges each range in
// place through forEach, and gathers the merged prefixes back to the front
// of work, in range order. It returns their total length.
func (sb *splitScratch) pass(work Region, n int, forEach func(int, func(int)), key func(Rect) float64, merge func(Region) Region) int {
	// Pivots: the n-quantiles of an evenly spaced sample of the keys. Equal
	// keys always fall in one range, whatever the pivots.
	sample, pivots := sb.sample[:0], sb.pivots[:0]
	for i, step := 0, max(1, len(work)/(32*n)); i < len(work); i += step {
		sample = append(sample, key(work[i]))
	}
	slices.Sort(sample)
	for i := 1; i < n; i++ {
		pivots = append(pivots, sample[i*len(sample)/n])
	}
	part := func(r Rect) int {
		k, i := key(r), 0
		for i < len(pivots) && pivots[i] <= k {
			i++
		}
		return i
	}
	bounds, cur := sb.bounds[:0], sb.cur[:0]
	for i := 0; i <= n; i++ {
		bounds = append(bounds, 0)
	}
	for _, r := range work {
		bounds[part(r)+1]++
	}
	for i := 1; i <= n; i++ {
		bounds[i] += bounds[i-1]
	}
	cur = append(cur, bounds[:n]...)
	if cap(sb.buf) < len(work) {
		sb.buf = make(Region, len(work))
	}
	buf := sb.buf[:len(work)]
	for _, r := range work {
		i := part(r)
		buf[cur[i]] = r
		cur[i]++
	}
	forEach(n, func(i int) {
		cur[i] = bounds[i] + len(merge(buf[bounds[i]:bounds[i+1]]))
	})
	m := 0
	for i := 0; i < n; i++ {
		m += copy(work[m:], buf[bounds[i]:cur[i]])
	}
	sb.sample, sb.pivots, sb.bounds, sb.cur = sample, pivots, bounds, cur
	return m
}
