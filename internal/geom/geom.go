// Package geom provides the planar geometry primitives used throughout the
// PDR (pointwise-dense region) system: points, vectors, axis-aligned
// rectangles with half-open semantics, and measure computations on unions of
// rectangles.
//
// Half-open convention. The paper defines the l-square neighborhood of a
// point to include its right and top edges and exclude its left and bottom
// edges. Dually, every rectangle in this package is interpreted as the
// half-open product [MinX, MaxX) x [MinY, MaxY): closed on the left/bottom,
// open on the right/top. Under this convention a set of rectangles tiling a
// region covers each point exactly once, and areas of unions, intersections
// and differences are exact rather than approximate along shared edges.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the XY-plane.
type Point struct {
	X, Y float64
}

// Vec is a velocity or displacement vector in the XY-plane.
type Vec struct {
	X, Y float64
}

// Add returns p translated by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the displacement from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Add returns the vector sum v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, interpreted as the half-open region
// [MinX, MaxX) x [MinY, MaxY). A Rect with MaxX <= MinX or MaxY <= MinY is
// empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromCenter returns the square of edge length l centered at p.
// Per the half-open convention this is the dual influence rectangle of the
// paper's l-square neighborhood: it is closed on the left/bottom edges and
// open on the right/top edges.
func RectFromCenter(p Point, l float64) Rect {
	h := l / 2
	return Rect{p.X - h, p.Y - h, p.X + h, p.Y + h}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Width returns max(0, MaxX-MinX).
func (r Rect) Width() float64 {
	if r.MaxX <= r.MinX {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns max(0, MaxY-MinY).
func (r Rect) Height() float64 {
	if r.MaxY <= r.MinY {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (zero if empty).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies in the half-open region of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// ContainsClosed reports whether p lies in the closure of r. The l-square
// neighborhood S_l(p) of the paper contains object q exactly when the dual
// influence rectangle of q contains p half-openly; ContainsClosed is provided
// for MBR-style containment checks where boundary inclusion is conservative.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s is entirely inside r (as point sets; empty s
// is contained in everything).
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (half-open
// semantics: touching edges do not intersect).
func (r Rect) Intersects(s Rect) bool {
	return !r.Intersect(s).IsEmpty()
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s. Empty inputs
// are ignored; the union of two empty rectangles is the empty Rect{}.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Grow returns r expanded by d on every side (shrunk if d is negative).
func (r Rect) Grow(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g, %g) x [%g, %g)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Region is a set of points represented as a union of half-open rectangles.
// The rectangles may overlap; all measure operations account for overlap
// exactly.
type Region []Rect

// Add appends r to the region if it is non-empty.
func (g *Region) Add(r Rect) {
	if !r.IsEmpty() {
		*g = append(*g, r)
	}
}

// Bounds returns the bounding rectangle of the region.
func (g Region) Bounds() Rect {
	var b Rect
	for _, r := range g {
		b = b.Union(r)
	}
	return b
}

// Contains reports whether p lies in at least one rectangle of the region.
func (g Region) Contains(p Point) bool {
	for _, r := range g {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Area returns the exact area of the union of the region's rectangles.
func (g Region) Area() float64 { return UnionArea(g) }

// IntersectionArea returns area(g intersect h), via inclusion-exclusion
// over three sweep-line union measures: |A ^ B| = |A| + |B| - |A u B|.
func (g Region) IntersectionArea(h Region) float64 {
	combined := make([]Rect, 0, len(g)+len(h))
	combined = append(combined, g...)
	combined = append(combined, h...)
	v := g.Area() + h.Area() - UnionArea(combined)
	if v < 0 {
		return 0 // floating-point round-off guard
	}
	return v
}

// DifferenceArea returns area(g \ h) = area(g u h) - area(h).
func (g Region) DifferenceArea(h Region) float64 {
	combined := make([]Rect, 0, len(g)+len(h))
	combined = append(combined, g...)
	combined = append(combined, h...)
	d := UnionArea(combined) - h.Area()
	if d < 0 {
		return 0 // guard against floating-point round-off
	}
	return d
}
