package pa

import (
	"fmt"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// ContourSegment is one line segment of a density iso-line.
type ContourSegment struct {
	A, B geom.Point
}

// Contours extracts iso-lines of the approximated density at timestamp qt
// for the given level, using marching squares over a res x res sampling of
// the Chebyshev surface. The paper cites explicit contour lines of the
// density distribution as a distinctive capability of the approximation
// method (Sec. 6).
func (s *Surface) Contours(qt motion.Tick, level float64, res int) ([]ContourSegment, error) {
	if qt < s.base || qt > s.base+s.cfg.Horizon {
		return nil, fmt.Errorf("pa: timestamp %d outside window [%d, %d]", qt, s.base, s.base+s.cfg.Horizon)
	}
	// The sampling allocates (res+1)² densities and evaluates the series at
	// each under the caller's read lock, so res is bounded above as well:
	// 1024 is 8x the largest in-tree caller (pdrquery -svg's 128).
	const maxRes = 1024
	if res < 2 || res > maxRes {
		return nil, fmt.Errorf("pa: contour resolution must be in [2, %d], got %d", maxRes, res)
	}
	area := s.cfg.Area
	dx := area.Width() / float64(res)
	dy := area.Height() / float64(res)

	// Sample densities at the (res+1)^2 grid corners.
	vals := make([]float64, (res+1)*(res+1))
	for j := 0; j <= res; j++ {
		for i := 0; i <= res; i++ {
			p := geom.Point{X: area.MinX + float64(i)*dx, Y: area.MinY + float64(j)*dy}
			vals[j*(res+1)+i] = s.Density(qt, p)
		}
	}

	// interp returns the point on the edge between two corners where the
	// density crosses the level.
	interp := func(pa geom.Point, va float64, pb geom.Point, vb float64) geom.Point {
		d := vb - va
		t := 0.5
		if d != 0 {
			t = (level - va) / d
		}
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return geom.Point{X: pa.X + t*(pb.X-pa.X), Y: pa.Y + t*(pb.Y-pa.Y)}
	}

	var segs []ContourSegment
	for j := 0; j < res; j++ {
		for i := 0; i < res; i++ {
			// Corners: 0=bottom-left, 1=bottom-right, 2=top-right, 3=top-left.
			p0 := geom.Point{X: area.MinX + float64(i)*dx, Y: area.MinY + float64(j)*dy}
			p1 := geom.Point{X: p0.X + dx, Y: p0.Y}
			p2 := geom.Point{X: p0.X + dx, Y: p0.Y + dy}
			p3 := geom.Point{X: p0.X, Y: p0.Y + dy}
			v0 := vals[j*(res+1)+i]
			v1 := vals[j*(res+1)+i+1]
			v2 := vals[(j+1)*(res+1)+i+1]
			v3 := vals[(j+1)*(res+1)+i]

			idx := 0
			if v0 >= level {
				idx |= 1
			}
			if v1 >= level {
				idx |= 2
			}
			if v2 >= level {
				idx |= 4
			}
			if v3 >= level {
				idx |= 8
			}
			if idx == 0 || idx == 15 {
				continue
			}
			// Crossing points on the four edges (bottom, right, top, left).
			bottom := interp(p0, v0, p1, v1)
			right := interp(p1, v1, p2, v2)
			top := interp(p3, v3, p2, v2)
			left := interp(p0, v0, p3, v3)

			emit := func(a, b geom.Point) {
				segs = append(segs, ContourSegment{A: a, B: b})
			}
			switch idx {
			case 1, 14:
				emit(left, bottom)
			case 2, 13:
				emit(bottom, right)
			case 3, 12:
				emit(left, right)
			case 4, 11:
				emit(right, top)
			case 6, 9:
				emit(bottom, top)
			case 7, 8:
				emit(left, top)
			case 5: // saddle: two segments
				emit(left, bottom)
				emit(right, top)
			case 10: // saddle
				emit(bottom, right)
				emit(left, top)
			}
		}
	}
	return segs, nil
}
