package geom

import "math"

// NewRect returns the half-open rectangle [minX, maxX) x [minY, maxY).
// It is the canonical constructor outside this package (enforced by
// pdrvet's halfopen analyzer): building rectangles in one audited place
// keeps the closed-left/open-right convention from silently flipping in
// density counts. Inverted extents yield an empty rectangle, as
// documented on Rect.
func NewRect(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Eps is the relative tolerance of ApproxEq: coarse enough to absorb the
// round-off of the handful of arithmetic steps that produce any coordinate
// in this module, fine enough to keep distinct histogram-cell boundaries
// (>= 1e-3 apart at the paper's scales) separate.
const Eps = 1e-9

// ApproxEq reports whether a and b are equal within Eps, relative to their
// magnitude (absolute near zero). It is the approved way to compare
// computed float values; exact ==/!= on floats is rejected by pdrvet's
// floateq analyzer.
func ApproxEq(a, b float64) bool {
	if a == b {
		return true // fast path; also covers infinities
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= Eps*scale
}
