package geom

import (
	"math"
	"slices"
	"testing"
)

// FuzzOutlineAreaIdentity derives a rectangle set from fuzz bytes and checks
// the outline invariants: net signed ring area equals the union area, and
// every ring edge is axis-parallel and non-degenerate.
func FuzzOutlineAreaIdentity(f *testing.F) {
	f.Add([]byte{0, 0, 2, 2, 1, 1, 3, 3})
	f.Add([]byte{0, 0, 1, 1, 1, 1, 2, 2})       // corner pinch
	f.Add([]byte{5, 5, 9, 9, 0, 0, 4, 4, 2, 2}) // disjoint + leftover byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Region
		for i := 0; i+3 < len(data) && len(g) < 24; i += 4 {
			x := float64(data[i] % 16)
			y := float64(data[i+1] % 16)
			w := float64(data[i+2]%7) + 0
			h := float64(data[i+3]%7) + 0
			g.Add(Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		rings := g.Outline()
		var signed float64
		for _, ring := range rings {
			signed += RingArea(ring)
			for i := range ring {
				a, b := ring[i], ring[(i+1)%len(ring)]
				if a == b {
					t.Fatalf("degenerate edge in ring %v", ring)
				}
				if a.X != b.X && a.Y != b.Y {
					t.Fatalf("diagonal edge %v -> %v", a, b)
				}
			}
		}
		if want := g.Area(); math.Abs(signed-want) > 1e-6*(1+want) {
			t.Fatalf("signed ring area %g != union area %g (%d rects)", signed, want, len(g))
		}
		// Subtract identity on the same data: g \ g is empty.
		if d := Subtract(g, g); d.Area() != 0 {
			t.Fatalf("g \\ g has area %g", d.Area())
		}
	})
}

// FuzzCoalesceBandOrderedMatchesInPlace derives a quadtree soup from fuzz
// bytes — disjoint dyadic boxes over a row-major grid of cells, mapped to the
// plane as the PA branch-and-bound maps them, in the order it emits them —
// groups it by band with a stable sort on (MinY, MaxY) alone, and requires
// CoalesceBandOrdered of that to be CoalesceInPlace's answer, float bit for
// float bit: within a band, emission order is ascending MinX.
func FuzzCoalesceBandOrderedMatchesInPlace(f *testing.F) {
	f.Add([]byte{2, 3, 0, 2, 1, 2, 1, 1, 0, 2, 2, 1, 1, 1, 1, 0, 1, 2})
	f.Add([]byte{3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})       // every cell dense at its root
	f.Add([]byte{1, 4, 8, 2, 2, 2, 2, 1, 0, 1, 1, 2, 1, 0, 1}) // one cell, deep, far from the origin
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g, depth := 1+int(data[0]%4), int(data[1]%5)
		origin := []float64{0, -37.5, 1000, 1e6, 123.456}[data[2]%5]
		size := []float64{100, 0.1, 3, 1000.0 / 7, 250}[data[2]/5%5]
		next := 3
		var soup Region
		var split func(cell Rect, level int, x1, y1 float64)
		split = func(cell Rect, level int, x1, y1 float64) {
			if next >= len(data) || len(soup) >= 512 {
				return
			}
			op := data[next] % 3
			next++
			side := 2 / float64(int(1)<<level)
			switch {
			case op == 0:
			case op == 1 || level == depth:
				soup.Add(NewRect(
					cell.MinX+(x1+1)/2*cell.Width(), cell.MinY+(y1+1)/2*cell.Height(),
					cell.MinX+(x1+side+1)/2*cell.Width(), cell.MinY+(y1+side+1)/2*cell.Height()))
			default:
				h := side / 2
				split(cell, level+1, x1, y1)
				split(cell, level+1, x1+h, y1)
				split(cell, level+1, x1, y1+h)
				split(cell, level+1, x1+h, y1+h)
			}
		}
		for c := 0; c < g*g; c++ {
			gx, gy := float64(c%g), float64(c/g)
			split(NewRect(origin+gx*size, origin+gy*size, origin+(gx+1)*size, origin+(gy+1)*size), 0, -1, -1)
		}
		banded := slices.Clone(soup)
		slices.SortStableFunc(banded, func(a, b Rect) int {
			return compare3(a.MinY, b.MinY, a.MaxY, b.MaxY, 0, 0)
		})
		want := slices.Clone(soup)
		slices.Reverse(want)
		got, want := CoalesceBandOrdered(banded), CoalesceInPlace(want)
		if len(got) != len(want) {
			t.Fatalf("%d rectangles from %d, CoalesceInPlace %d", len(got), len(soup), len(want))
		}
		bits := math.Float64bits
		for i, r := range got {
			q := want[i]
			if bits(r.MinX) != bits(q.MinX) || bits(r.MinY) != bits(q.MinY) || bits(r.MaxX) != bits(q.MaxX) || bits(r.MaxY) != bits(q.MaxY) {
				t.Fatalf("rectangle %d: %v, CoalesceInPlace %v", i, r, q)
			}
		}
	})
}

// FuzzSubtractMatchesReference derives two rectangle soups from fuzz bytes —
// overlapping and disjoint, some spanning many grid cells, over an origin
// and scale the first byte picks — and requires Subtract to return
// referenceSubtract's answer, float bit for float bit, in both directions.
func FuzzSubtractMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 1, 1, 3, 3})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1}) // unit cells, disjoint
	f.Add([]byte{7, 5, 5, 6, 6, 0, 0, 1, 1, 3, 3, 6, 6, 9, 9, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		origin := []float64{0, -37.5, 1000, 1e6, 123.456}[data[0]%5]
		scale := []float64{1, 0.1, 3, 1000.0 / 7}[data[0]/5%4]
		var soups [2]Region
		for i, k := 1, 0; i+3 < len(data) && k < 96; i, k = i+4, k+1 {
			x := origin + float64(data[i]%16)*scale
			y := origin + float64(data[i+1]%16)*scale
			w := float64(data[i+2]%7) * scale
			h := float64(data[i+3]%7) * scale
			soups[k%2].Add(Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		g, h := soups[0], soups[1]
		if got, want := Subtract(g, h), referenceSubtract(g, h); !sameBits(got, want) {
			t.Fatalf("g \\ h: %v, reference %v", got, want)
		}
		if got, want := Subtract(h, g), referenceSubtract(h, g); !sameBits(got, want) {
			t.Fatalf("h \\ g: %v, reference %v", got, want)
		}
	})
}
