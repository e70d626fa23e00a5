package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectEmpty(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 1, 1}, false},
		{Rect{0, 0, 0, 1}, true},
		{Rect{0, 0, 1, 0}, true},
		{Rect{1, 1, 0, 0}, true},
		{Rect{}, true},
		{Rect{-1, -1, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.r.IsEmpty(); got != c.want {
			t.Errorf("IsEmpty(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectAreaWidthHeight(t *testing.T) {
	r := Rect{1, 2, 4, 7}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %g, want 3", got)
	}
	if got := r.Height(); got != 5 {
		t.Errorf("Height = %g, want 5", got)
	}
	if got := r.Area(); got != 15 {
		t.Errorf("Area = %g, want 15", got)
	}
	if got := (Rect{3, 3, 1, 9}).Area(); got != 0 {
		t.Errorf("empty Area = %g, want 0", got)
	}
}

func TestHalfOpenContains(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if !r.Contains(Point{0, 0}) {
		t.Error("left-bottom corner must be contained (closed edges)")
	}
	if r.Contains(Point{2, 1}) {
		t.Error("right edge must be excluded (open edge)")
	}
	if r.Contains(Point{1, 2}) {
		t.Error("top edge must be excluded (open edge)")
	}
	if !r.Contains(Point{1.999999, 1.999999}) {
		t.Error("interior point near top-right must be contained")
	}
	if !r.ContainsClosed(Point{2, 2}) {
		t.Error("ContainsClosed must include the top-right corner")
	}
}

func TestRectFromCenterHalfOpenDuality(t *testing.T) {
	// The influence rectangle of object q contains center p exactly when q
	// lies in the (right/top-closed) l-square neighborhood of p.
	l := 2.0
	q := Point{5, 5}
	infl := RectFromCenter(q, l)

	inNeighborhood := func(p Point) bool {
		return q.X > p.X-l/2 && q.X <= p.X+l/2 && q.Y > p.Y-l/2 && q.Y <= p.Y+l/2
	}
	pts := []Point{
		{5, 5}, {4, 4}, {6, 6}, {3.999, 5}, {6.001, 5}, {4, 6}, {6, 4},
		{5.9999, 5.9999}, {4.0001, 4.0001},
	}
	for _, p := range pts {
		if got, want := infl.Contains(p), inNeighborhood(p); got != want {
			t.Errorf("duality broken at p=%v: influence contains=%v, neighborhood=%v", p, got, want)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got := a.Intersect(b)
	want := Rect{2, 2, 4, 4}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	// Touching edges produce an empty intersection under half-open semantics.
	c := Rect{4, 0, 8, 4}
	if a.Intersects(c) {
		t.Error("edge-touching rectangles must not intersect")
	}
}

func TestUnionBounding(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{5, -2, 6, 3}
	got := a.Union(b)
	want := Rect{0, -2, 6, 3}
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
}

func TestGrowCenter(t *testing.T) {
	r := Rect{0, 0, 2, 4}
	if got, want := r.Grow(1), (Rect{-1, -1, 3, 5}); got != want {
		t.Errorf("Grow = %v, want %v", got, want)
	}
	if got, want := r.Center(), (Point{1, 2}); got != want {
		t.Errorf("Center = %v, want %v", got, want)
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Error("inner rect must be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect must contain itself")
	}
	if outer.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Error("overhanging rect must not be contained")
	}
	if !outer.ContainsRect(Rect{}) {
		t.Error("empty rect is contained in everything")
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got, want := v.Scale(2), (Vec{6, 8}); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := v.Add(Vec{-3, -4}), (Vec{0, 0}); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	p := Point{1, 1}
	if got, want := p.Add(v), (Point{4, 5}); got != want {
		t.Errorf("Point.Add = %v, want %v", got, want)
	}
	if got, want := (Point{4, 5}).Sub(p), v; got != want {
		t.Errorf("Point.Sub = %v, want %v", got, want)
	}
}

func TestRegionContainsAndBounds(t *testing.T) {
	var g Region
	g.Add(Rect{0, 0, 1, 1})
	g.Add(Rect{2, 2, 3, 3})
	g.Add(Rect{5, 5, 5, 9}) // empty, must be dropped
	if len(g) != 2 {
		t.Fatalf("Add kept %d rects, want 2", len(g))
	}
	if !g.Contains(Point{0.5, 0.5}) || !g.Contains(Point{2, 2}) {
		t.Error("Region must contain points of its member rects")
	}
	if g.Contains(Point{1.5, 1.5}) {
		t.Error("Region must not contain points outside all members")
	}
	if got, want := g.Bounds(), (Rect{0, 0, 3, 3}); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
}

// quickRect generates a bounded random rectangle (possibly degenerate).
func quickRect(rng *rand.Rand) Rect {
	x1, y1 := rng.Float64()*100, rng.Float64()*100
	w, h := rng.Float64()*30, rng.Float64()*30
	return Rect{x1, y1, x1 + w, y1 + h}
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := quickRect(rng), quickRect(rng)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		return i1 == i2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectionWithinBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := quickRect(rng), quickRect(rng)
		i := a.Intersect(b)
		if i.IsEmpty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := quickRect(rng), quickRect(rng)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAreaInclusionExclusion(t *testing.T) {
	// area(a) + area(b) = area(a union b as region) + area(a intersect b).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := quickRect(rng), quickRect(rng)
		lhs := a.Area() + b.Area()
		rhs := UnionArea([]Rect{a, b}) + a.Intersect(b).Area()
		return math.Abs(lhs-rhs) < 1e-6*(1+lhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
