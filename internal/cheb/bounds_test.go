package cheb

import (
	"math"
	"math/rand"
	"testing"
)

// bound is AxisBounds for the one degree i.
func bound(i int, z1, z2 float64) (lo, hi float64) {
	dst := make([]Interval, i+1)
	AxisBounds(dst, z1, z2)
	return dst[i].Lo, dst[i].Hi
}

// referenceBound is the per-degree Bound that Bounds called before it was
// split into AxisBounds and BoundsFrom — its own arccosines and recurrence per
// degree, math.Min/Max — and referenceBounds the Bounds built on it: one Bound
// call per degree and axis, the extremes of the four endpoint products through
// math.Min/Max. Kept as the bit-for-bit reference of the split.
func referenceBound(i int, z1, z2 float64) (lo, hi float64) {
	if i == 0 {
		return 1, 1
	}
	if z1 > z2 {
		z1, z2 = z2, z1
	}
	z1 = clamp(z1, -1, 1)
	z2 = clamp(z2, -1, 1)
	v1, v2 := T(i, z1), T(i, z2)
	lo = math.Min(v1, v2)
	hi = math.Max(v1, v2)
	u1 := float64(i) * math.Acos(z2)
	u2 := float64(i) * math.Acos(z1)
	kLo := int(math.Ceil(u1/math.Pi - 1e-12))
	kHi := int(math.Floor(u2/math.Pi + 1e-12))
	for k := kLo; k <= kHi; k++ {
		if k%2 == 0 {
			hi = 1
		} else {
			lo = -1
		}
	}
	return lo, hi
}

func referenceBounds(s *Series2D, x1, y1, x2, y2 float64) (lo, hi float64) {
	idx := 0
	for i := 0; i <= s.K; i++ {
		xl, xh := referenceBound(i, x1, x2)
		for j := 0; j <= s.K-i; j++ {
			a := s.A[idx]
			idx++
			if a == 0 {
				continue
			}
			yl, yh := referenceBound(j, y1, y2)
			p1, p2, p3, p4 := xl*yl, xl*yh, xh*yl, xh*yh
			tl := math.Min(math.Min(p1, p2), math.Min(p3, p4))
			th := math.Max(math.Max(p1, p2), math.Max(p3, p4))
			if a > 0 {
				lo += a * tl
				hi += a * th
			} else {
				lo += a * th
				hi += a * tl
			}
		}
	}
	return lo, hi
}

// FuzzAxisBoundsMatchesBound: AxisBounds is the Bound it replaced for every
// degree at once, on float bits, for any pair of endpoints: ordered, reversed,
// equal, on and beyond the edges of [-1, 1].
func FuzzAxisBoundsMatchesBound(f *testing.F) {
	for _, z := range [][2]float64{
		{-1, 1}, {-0.5, 0.25}, {0.25, -0.5}, {0.3, 0.3}, {0, 0}, {-1, -1}, {1, 1},
		{-3, 0.5}, {0.5, 3}, {2, 3}, {-7, 7}, {-0.0625, 0}, {0, 0.0625}, {math.Copysign(0, -1), 0.5},
	} {
		f.Add(z[0], z[1])
	}
	f.Fuzz(func(t *testing.T, z1, z2 float64) {
		if math.IsNaN(z1) || math.IsNaN(z2) {
			t.Skip("an interval has no NaN endpoint")
		}
		var dst [9]Interval
		AxisBounds(dst[:], z1, z2)
		for i, got := range dst {
			lo, hi := referenceBound(i, z1, z2)
			if math.Float64bits(got.Lo) != math.Float64bits(lo) || math.Float64bits(got.Hi) != math.Float64bits(hi) {
				t.Fatalf("AxisBounds(%g, %g)[%d] = [%x, %x], Bound has [%x, %x]", z1, z2, i,
					math.Float64bits(got.Lo), math.Float64bits(got.Hi), math.Float64bits(lo), math.Float64bits(hi))
			}
		}
	})
}

// TestBoundsFromMatchesBounds pins both routes through the split — Bounds,
// and AxisBounds x2 + BoundsFrom as the surface's table serves them — to the
// pre-split Bounds on float bits, over random series of degrees 0..7 (dense,
// sparse and with zero coefficients) and boxes interior, dyadic, degenerate,
// inverted and clipped.
func TestBoundsFromMatchesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for k := 0; k <= 7; k++ {
		s, _ := NewSeries2D(k)
		bx, by := make([]Interval, k+1), make([]Interval, k+1)
		for n := 0; n < 2000; n++ {
			for i := range s.A {
				s.A[i] = rng.NormFloat64() / 900
				if rng.Intn(5) == 0 {
					s.A[i] = 0
				}
			}
			x1, x2 := kernelCoord(rng), kernelCoord(rng)
			y1, y2 := kernelCoord(rng), kernelCoord(rng)
			if n%4 == 0 { // a box of the branch-and-bound lattice
				w := 2 / float64(int(1)<<rng.Intn(7))
				x1, y1 = -1+w*float64(rng.Intn(int(2/w))), -1+w*float64(rng.Intn(int(2/w)))
				x2, y2 = x1+w, y1+w
			}
			wlo, whi := referenceBounds(s, x1, y1, x2, y2)
			lo, hi := s.Bounds(x1, y1, x2, y2)
			AxisBounds(bx, x1, x2)
			AxisBounds(by, y1, y2)
			flo, fhi := s.BoundsFrom(bx, by)
			for _, got := range [][2]float64{{lo, hi}, {flo, fhi}} {
				if math.Float64bits(got[0]) != math.Float64bits(wlo) || math.Float64bits(got[1]) != math.Float64bits(whi) {
					t.Fatalf("k=%d box %d [%g,%g]x[%g,%g]: bounds [%x, %x], reference [%x, %x]", k, n, x1, x2, y1, y2,
						math.Float64bits(got[0]), math.Float64bits(got[1]), math.Float64bits(wlo), math.Float64bits(whi))
				}
			}
		}
	}
}

func BenchmarkBounds(b *testing.B) {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Bounds(-0.5, -0.25, -0.4375, -0.1875)
	}
}

func BenchmarkBoundsFrom(b *testing.B) {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	bx, by := make([]Interval, 6), make([]Interval, 6)
	AxisBounds(bx, -0.5, -0.4375)
	AxisBounds(by, -0.25, -0.1875)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BoundsFrom(bx, by)
	}
}
