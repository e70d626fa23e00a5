// Package baselines re-implements the two prior dense-region query
// definitions the PDR paper argues against (Sec. 2), so their failure modes
// — answer loss, ambiguity, fixed shapes, missing local-density guarantees —
// and the paper's superset claim (Sec. 3.1) can be demonstrated and tested
// directly.
//
//   - Dense-cell queries (Hadjieleftheriou et al., SSTD 2003 [4]): partition
//     the space into a fixed grid and report cells whose region density
//     (count/area) reaches the threshold. Dense regions spanning cell
//     borders are lost entirely (Fig. 1a).
//
//   - Effective Density Queries (Jensen et al., ICDE 2006 [7]): report a set
//     of NON-overlapping dense l x l squares. Which maximal set is reported
//     depends on the scan strategy, so equally valid answers differ
//     (Fig. 1b).
package baselines

import (
	"sort"

	"pdr/internal/geom"
)

// DenseCells answers a dense-cell query: the area is partitioned into an
// m x m grid and every cell whose region density count/area >= rho is
// reported. Objects outside the area are ignored.
func DenseCells(points []geom.Point, area geom.Rect, m int, rho float64) geom.Region {
	if m < 1 || area.IsEmpty() {
		return nil
	}
	w := area.Width() / float64(m)
	h := area.Height() / float64(m)
	counts := make([]int, m*m)
	for _, p := range points {
		if !area.Contains(p) {
			continue
		}
		i := int((p.X - area.MinX) / w)
		j := int((p.Y - area.MinY) / h)
		if i >= m {
			i = m - 1
		}
		if j >= m {
			j = m - 1
		}
		counts[i*m+j]++
	}
	cellArea := w * h
	var out geom.Region
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if float64(counts[i*m+j])/cellArea >= rho {
				out.Add(geom.NewRect(
					area.MinX+float64(i)*w,
					area.MinY+float64(j)*h,
					area.MinX+float64(i+1)*w,
					area.MinY+float64(j+1)*h,
				))
			}
		}
	}
	return out
}

// ScanOrder selects the greedy scan strategy of the EDQ reporting step. The
// EDQ definition admits multiple maximal non-overlapping answers; different
// orders surface the ambiguity the PDR paper criticizes.
type ScanOrder int

const (
	// ScanLeftToRight considers candidate squares by ascending X.
	ScanLeftToRight ScanOrder = iota
	// ScanRightToLeft considers candidate squares by descending X.
	ScanRightToLeft
)

// EDQSquare is one reported effective-density square with its object count.
type EDQSquare struct {
	Center geom.Point
	Rect   geom.Rect
	Count  int
}

// EDQ answers an effective density query: a maximal set of non-overlapping
// l x l squares each containing at least rho*l^2 objects. Candidate squares
// are the l-square neighborhoods centered at object locations (the densest
// anchors available), greedily accepted in the given scan order. The result
// is a valid EDQ answer; different orders generally give different, equally
// valid answers.
func EDQ(points []geom.Point, area geom.Rect, l, rho float64, order ScanOrder) []EDQSquare {
	if l <= 0 || area.IsEmpty() {
		return nil
	}
	threshold := rho * l * l
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if order == ScanRightToLeft {
			return points[idx[a]].X > points[idx[b]].X
		}
		return points[idx[a]].X < points[idx[b]].X
	})

	var out []EDQSquare
	for _, i := range idx {
		c := points[i]
		if !area.Contains(c) {
			continue
		}
		// The candidate square is c's l-square neighborhood (right/top
		// closed), represented by its dual half-open rectangle.
		count := 0
		for _, q := range points {
			if q.X > c.X-l/2 && q.X <= c.X+l/2 && q.Y > c.Y-l/2 && q.Y <= c.Y+l/2 {
				count++
			}
		}
		if float64(count) < threshold {
			continue
		}
		r := geom.RectFromCenter(c, l)
		overlaps := false
		for _, s := range out {
			if s.Rect.Intersects(r) {
				overlaps = true
				break
			}
		}
		if !overlaps {
			out = append(out, EDQSquare{Center: c, Rect: r, Count: count})
		}
	}
	return out
}

// Region returns the union of the reported squares as a region.
func Region(squares []EDQSquare) geom.Region {
	out := make(geom.Region, 0, len(squares))
	for _, s := range squares {
		out.Add(s.Rect)
	}
	return out
}
