package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func totalSignedArea(rings []Ring) float64 {
	var sum float64
	for _, r := range rings {
		sum += RingArea(r)
	}
	return sum
}

func TestOutlineSingleRect(t *testing.T) {
	g := Region{{MinX: 1, MinY: 2, MaxX: 4, MaxY: 6}}
	rings := g.Outline()
	if len(rings) != 1 {
		t.Fatalf("got %d rings, want 1", len(rings))
	}
	if len(rings[0]) != 4 {
		t.Fatalf("rectangle outline has %d vertices, want 4: %v", len(rings[0]), rings[0])
	}
	if got, want := RingArea(rings[0]), 12.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("ring area %g, want %g (counter-clockwise outer ring)", got, want)
	}
}

func TestOutlineMergesAdjacent(t *testing.T) {
	// Two abutting rectangles become one hexagon-free rectangle ring.
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2},
		{MinX: 2, MinY: 0, MaxX: 4, MaxY: 2},
	}
	rings := g.Outline()
	if len(rings) != 1 {
		t.Fatalf("got %d rings, want 1 merged", len(rings))
	}
	if len(rings[0]) != 4 {
		t.Errorf("merged outline has %d vertices, want 4 (collinear dropped)", len(rings[0]))
	}
	if got := RingArea(rings[0]); math.Abs(got-8) > 1e-9 {
		t.Errorf("merged area %g, want 8", got)
	}
}

func TestOutlineLShape(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 3, MaxY: 1},
		{MinX: 0, MinY: 1, MaxX: 1, MaxY: 3},
	}
	rings := g.Outline()
	if len(rings) != 1 {
		t.Fatalf("got %d rings, want 1", len(rings))
	}
	if len(rings[0]) != 6 {
		t.Errorf("L-shape outline has %d vertices, want 6: %v", len(rings[0]), rings[0])
	}
	if got := RingArea(rings[0]); math.Abs(got-5) > 1e-9 {
		t.Errorf("L-shape area %g, want 5", got)
	}
}

func TestOutlineDisjointComponents(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 5, MinY: 5, MaxX: 7, MaxY: 6},
	}
	rings := g.Outline()
	if len(rings) != 2 {
		t.Fatalf("got %d rings, want 2", len(rings))
	}
	if got := totalSignedArea(rings); math.Abs(got-3) > 1e-9 {
		t.Errorf("total signed area %g, want 3", got)
	}
}

func TestOutlineHole(t *testing.T) {
	// A square frame: outer ring CCW, hole ring CW (negative area).
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 5, MaxY: 1},
		{MinX: 0, MinY: 4, MaxX: 5, MaxY: 5},
		{MinX: 0, MinY: 1, MaxX: 1, MaxY: 4},
		{MinX: 4, MinY: 1, MaxX: 5, MaxY: 4},
	}
	rings := g.Outline()
	if len(rings) != 2 {
		t.Fatalf("got %d rings, want outer + hole", len(rings))
	}
	var pos, neg float64
	for _, r := range rings {
		a := RingArea(r)
		if a > 0 {
			pos += a
		} else {
			neg += a
		}
	}
	if math.Abs(pos-25) > 1e-9 {
		t.Errorf("outer ring area %g, want 25", pos)
	}
	if math.Abs(neg+9) > 1e-9 {
		t.Errorf("hole ring area %g, want -9", neg)
	}
	// Net signed area equals the region area.
	if got, want := pos+neg, g.Area(); math.Abs(got-want) > 1e-9 {
		t.Errorf("net outline area %g, want %g", got, want)
	}
}

func TestOutlineOverlappingRects(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3},
		{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5},
	}
	rings := g.Outline()
	if len(rings) != 1 {
		t.Fatalf("got %d rings, want 1", len(rings))
	}
	if got, want := RingArea(rings[0]), g.Area(); math.Abs(got-want) > 1e-9 {
		t.Errorf("outline area %g, want %g", got, want)
	}
}

func TestOutlineEmpty(t *testing.T) {
	if got := (Region{}).Outline(); got != nil {
		t.Errorf("empty region outline = %v", got)
	}
	if got := (Region{{MinX: 1, MinY: 1, MaxX: 1, MaxY: 5}}).Outline(); got != nil {
		t.Errorf("degenerate region outline = %v", got)
	}
}

func TestQuickOutlineAreaMatchesRegionArea(t *testing.T) {
	// Property: the net signed area of all rings equals the union area.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := make(Region, n)
		for i := range g {
			// Integer-ish coordinates provoke adjacency and pinches.
			x := float64(rng.Intn(12))
			y := float64(rng.Intn(12))
			g[i] = Rect{MinX: x, MinY: y, MaxX: x + float64(1+rng.Intn(5)), MaxY: y + float64(1+rng.Intn(5))}
		}
		got := totalSignedArea(g.Outline())
		want := g.Area()
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickOutlineEdgesAxisParallel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := make(Region, n)
		for i := range g {
			x := rng.Float64() * 20
			y := rng.Float64() * 20
			g[i] = Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*6, MaxY: y + 1 + rng.Float64()*6}
		}
		for _, ring := range g.Outline() {
			for i := range ring {
				a, b := ring[i], ring[(i+1)%len(ring)]
				if a.X != b.X && a.Y != b.Y {
					return false // diagonal segment
				}
				if a == b {
					return false // degenerate segment
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOutlineCornerPinch(t *testing.T) {
	// Two rectangles touching at exactly one corner: the left-turn
	// preference must produce two simple rings, not one figure-eight.
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2},
	}
	rings := g.Outline()
	if len(rings) != 2 {
		t.Fatalf("corner pinch produced %d rings, want 2: %v", len(rings), rings)
	}
	if got, want := totalSignedArea(rings), 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("pinch net area %g, want %g", got, want)
	}
	for _, r := range rings {
		if len(r) != 4 {
			t.Errorf("pinch ring has %d vertices, want 4: %v", len(r), r)
		}
	}
}

func TestOutlineCheckerboard(t *testing.T) {
	// A 2x2 checkerboard: two cells touching only at the center. Stress
	// for the pinch-vertex handling.
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2},
		{MinX: 4, MinY: 0, MaxX: 5, MaxY: 1}, // separate component
	}
	rings := g.Outline()
	if len(rings) != 3 {
		t.Fatalf("got %d rings, want 3", len(rings))
	}
	if got := totalSignedArea(rings); math.Abs(got-3) > 1e-9 {
		t.Errorf("net area %g, want 3", got)
	}
}
