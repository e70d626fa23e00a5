package sweep

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"pdr/internal/geom"
)

// This file keeps the per-cell kernel the row sweep replaced as the reference
// the tests compare against: an event array per window, band membership
// rebuilt by a scan of active[] and the band re-sorted by Y at every X event.
// It is the literal transcription of the paper's Algorithms 2 and 3 —
// quadratic, and independent of the one-X-order argument the row kernel rests
// on. Nothing outside the tests calls it; the scratch pooling it once had is
// dropped, every statement that decides an output bit is unchanged.

// referenceDenseRects is DenseRects as it was before the row kernel.
func referenceDenseRects(points []geom.Point, cell geom.Rect, rho, l float64) geom.Region {
	if cell.IsEmpty() || l <= 0 {
		return nil
	}
	threshold := int(math.Ceil(rho * l * l))
	if threshold <= 0 {
		return geom.Region{cell}
	}
	if len(points) < threshold {
		return nil
	}
	half := l / 2
	n := len(points)
	enterX, exitX := make([]float64, n), make([]float64, n)
	for i, p := range points {
		enterX[i] = p.X - half
		exitX[i] = p.X + half
	}
	// Event coordinates: the window edges plus every enter/exit inside.
	events := []float64{cell.MinX, cell.MaxX}
	for i := 0; i < n; i++ {
		if enterX[i] > cell.MinX && enterX[i] < cell.MaxX {
			events = append(events, enterX[i])
		}
		if exitX[i] > cell.MinX && exitX[i] < cell.MaxX {
			events = append(events, exitX[i])
		}
	}
	sort.Float64s(events)
	events = referenceDedup(events)

	byEnter, byExit := referenceSortedIndex(enterX), referenceSortedIndex(exitX)
	active := make([]bool, n)
	activeCount := 0
	pa, pb := 0, 0
	// Initialize the band at the window's left edge.
	for pa < n && enterX[byEnter[pa]] <= cell.MinX {
		i := byEnter[pa]
		if exitX[i] > cell.MinX {
			active[i] = true
			activeCount++
		}
		pa++
	}
	for pb < n && exitX[byExit[pb]] <= cell.MinX {
		pb++
	}

	var out geom.Region
	var members []geom.Point
	for ei := 0; ei+1 < len(events); ei++ {
		x := events[ei]
		if ei > 0 {
			// Advance the band to center x: objects whose exit coordinate
			// has been reached leave; objects whose enter coordinate has
			// been reached join.
			for pb < n && exitX[byExit[pb]] <= x {
				i := byExit[pb]
				if active[i] {
					active[i] = false
					activeCount--
				}
				pb++
			}
			for pa < n && enterX[byEnter[pa]] <= x {
				i := byEnter[pa]
				if exitX[i] > x && !active[i] {
					active[i] = true
					activeCount++
				}
				pa++
			}
		}
		if activeCount < threshold {
			continue
		}
		members = members[:0]
		for i := 0; i < n; i++ {
			if active[i] {
				members = append(members, points[i])
			}
		}
		for _, seg := range referenceSweepY(members, cell.MinY, cell.MaxY, threshold, half) {
			out.Add(geom.NewRect(x, seg.lo, events[ei+1], seg.hi))
		}
	}
	return geom.CoalesceInPlace(out)
}

// referenceSweepY runs the Y-dimension l-square sweep (paper Algorithm 3)
// over the band members, returning maximal dense segments within [yb, yt).
func referenceSweepY(members []geom.Point, yb, yt float64, threshold int, half float64) []segment {
	n := len(members)
	if n < threshold {
		return nil
	}
	enterY, exitY := make([]float64, n), make([]float64, n)
	for i, p := range members {
		enterY[i] = p.Y - half
		exitY[i] = p.Y + half
	}
	events := []float64{yb, yt}
	for i := 0; i < n; i++ {
		if enterY[i] > yb && enterY[i] < yt {
			events = append(events, enterY[i])
		}
		if exitY[i] > yb && exitY[i] < yt {
			events = append(events, exitY[i])
		}
	}
	sort.Float64s(events)
	events = referenceDedup(events)

	byEnter, byExit := referenceSortedIndex(enterY), referenceSortedIndex(exitY)
	count := 0
	pa, pb := 0, 0
	for pa < n && enterY[byEnter[pa]] <= yb {
		if exitY[byEnter[pa]] > yb {
			count++
		}
		pa++
	}
	for pb < n && exitY[byExit[pb]] <= yb {
		pb++
	}

	var segs []segment
	for ei := 0; ei+1 < len(events); ei++ {
		y := events[ei]
		if ei > 0 {
			for pb < n && exitY[byExit[pb]] <= y {
				count--
				pb++
			}
			for pa < n && enterY[byEnter[pa]] <= y {
				// Every enter processed here has enterY == y exactly (earlier
				// enters were consumed at their own events), so its exit
				// coordinate enterY+l lies strictly beyond y.
				count++
				pa++
			}
		}
		if count >= threshold {
			next := events[ei+1]
			if len(segs) > 0 && segs[len(segs)-1].hi == y {
				segs[len(segs)-1].hi = next // extend a contiguous dense run
			} else {
				segs = append(segs, segment{y, next})
			}
		}
	}
	return segs
}

// referenceDedup compacts sorted s in place, dropping equal neighbors.
func referenceDedup(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// referenceSortedIndex returns the indices of vals in ascending value order.
func referenceSortedIndex(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(vals[a], vals[b]) })
	return idx
}
