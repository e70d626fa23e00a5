package cheb

import (
	"math"
	"math/rand"
	"slices"
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

// referenceBoundsFrom is BoundsFrom as it stood before the kernel was split
// into Products and BoundsOf: per coefficient, the interval product bx[i] *
// by[j] by four multiplies and four compares, then scaled by a. Kept verbatim
// as the bit-for-bit reference of the split — and so of the surface's product
// table, which pa's reference walk shares with the engine.
func referenceBoundsFrom(s *Series2D, bx, by []Interval) (lo, hi float64) {
	k := s.K
	idx := 0
	for i := 0; i <= k; i++ {
		xl, xh := bx[i].Lo, bx[i].Hi
		for j := 0; j <= k-i; j++ {
			a := s.A[idx]
			idx++
			if a == 0 {
				continue
			}
			// Interval product bx[i] * by[j], then scaled by a.
			p1, p2 := xl*by[j].Lo, xl*by[j].Hi
			p3, p4 := xh*by[j].Lo, xh*by[j].Hi
			if p2 < p1 {
				p1, p2 = p2, p1
			}
			if p4 < p3 {
				p3, p4 = p4, p3
			}
			tl, th := p1, p2
			if p3 < tl {
				tl = p3
			}
			if p4 > th {
				th = p4
			}
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

// TestBoundsFromMatchesBounds pins both routes through the split — Bounds,
// and AxisBounds x2 + Products + BoundsOf as the surface's table serves them
// — to referenceBoundsFrom on float bits, and that in turn to the pre-split
// Bounds, over random series of degrees 0..7 (coefficients of both signs,
// a fifth of them exactly zero, and all-zero series) and boxes on every
// dyadic level 0..10 of the branch-and-bound lattice, interior, degenerate,
// inverted and clipped.
func TestBoundsFromMatchesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const levels = 11
	for k := 0; k <= 7; k++ {
		s, _ := NewSeries2D(k)
		bx, by := make([]Interval, k+1), make([]Interval, k+1)
		prods := make([]Interval, NumCoeffs(k))
		for n := 0; n < 2200; n++ {
			for i := range s.A {
				s.A[i] = rng.NormFloat64() / 900
				if rng.Intn(5) == 0 || n%100 == 0 {
					s.A[i] = 0
				}
			}
			x1, x2 := kernelCoord(rng), kernelCoord(rng)
			y1, y2 := kernelCoord(rng), kernelCoord(rng)
			if n%2 == 0 { // a box of the branch-and-bound lattice
				lv := n / 2 % levels
				w := 2 / float64(int(1)<<lv)
				x1, y1 = -1+w*float64(rng.Intn(1<<lv)), -1+w*float64(rng.Intn(1<<lv))
				x2, y2 = x1+w, y1+w
			}
			AxisBounds(bx, x1, x2)
			AxisBounds(by, y1, y2)
			wlo, whi := referenceBoundsFrom(s, bx, by)
			plo, phi := referenceBounds(s, x1, y1, x2, y2)
			lo, hi := s.Bounds(x1, y1, x2, y2)
			Products(prods, bx, by, k)
			flo, fhi := s.BoundsOf(prods)
			for _, got := range [][2]float64{{plo, phi}, {lo, hi}, {flo, fhi}} {
				if math.Float64bits(got[0]) != math.Float64bits(wlo) || math.Float64bits(got[1]) != math.Float64bits(whi) {
					t.Fatalf("k=%d box %d [%g,%g]x[%g,%g]: bounds [%x, %x], reference [%x, %x]", k, n, x1, x2, y1, y2,
						math.Float64bits(got[0]), math.Float64bits(got[1]), math.Float64bits(wlo), math.Float64bits(whi))
				}
			}
		}
	}
}

// TestBoundsOf4MatchesBoundsOf pins the four-box kernel to four BoundsOf
// calls on float bits, over degrees 0..7: coefficients positive, negative
// and exactly zero (some series all zero), against products of the walk's
// dyadic boxes (straddling zero wherever a term changes sign), of arbitrary
// boxes, and raw
// intervals — straddling zero, one-signed, degenerate, signed zeros — that
// no box produces.
func TestBoundsOf4MatchesBoundsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
	for k := 0; k <= 7; k++ {
		s, _ := NewSeries2D(k)
		m := NumCoeffs(k)
		bx, by := make([]Interval, k+1), make([]Interval, k+1)
		prods := [4][]Interval{}
		for c := range prods {
			prods[c] = make([]Interval, m)
		}
		for n := 0; n < 1000; n++ {
			for i := range s.A {
				switch {
				case n%50 == 0 || rng.Intn(5) == 0:
					s.A[i] = 0
				case n%3 == 0:
					s.A[i] = math.Abs(rng.NormFloat64())
				default:
					s.A[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			for c := range prods {
				switch n % 3 {
				case 0: // a box of the branch-and-bound lattice
					lv := rng.Intn(8)
					w := 2 / float64(int(1)<<lv)
					x1, y1 := -1+w*float64(rng.Intn(1<<lv)), -1+w*float64(rng.Intn(1<<lv))
					AxisBounds(bx, x1, x1+w)
					AxisBounds(by, y1, y1+w)
					Products(prods[c], bx, by, k)
				case 1:
					AxisBounds(bx, kernelCoord(rng), kernelCoord(rng))
					AxisBounds(by, kernelCoord(rng), kernelCoord(rng))
					Products(prods[c], bx, by, k)
				default:
					for i := range prods[c] {
						lo, hi := rng.NormFloat64(), rng.NormFloat64()
						if rng.Intn(4) == 0 {
							lo, hi = edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
						}
						prods[c][i] = Interval{min(lo, hi), max(lo, hi)}
					}
				}
			}
			// The walk hands the kernel four windows of one table.
			table := slices.Concat(prods[0], prods[1], prods[2], prods[3])
			lo, hi := s.BoundsOf4(table[:m], table[m:2*m], table[2*m:3*m], table[3*m:])
			for c := range prods {
				wlo, whi := s.BoundsOf(prods[c])
				if math.Float64bits(lo[c]) != math.Float64bits(wlo) || math.Float64bits(hi[c]) != math.Float64bits(whi) {
					t.Fatalf("k=%d trial %d box %d: BoundsOf4 [%x, %x], BoundsOf [%x, %x]", k, n, c,
						math.Float64bits(lo[c]), math.Float64bits(hi[c]), math.Float64bits(wlo), math.Float64bits(whi))
				}
			}
		}
	}
}

func boundsOp() func() {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	return func() { boundsSink, _ = s.Bounds(-0.5, -0.25, -0.4375, -0.1875) }
}

// boundsOfOp is one branch-and-bound box: the coefficient pass over a box's
// precomputed Products.
func boundsOfOp() func() {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	bx, by := make([]Interval, 6), make([]Interval, 6)
	AxisBounds(bx, -0.5, -0.4375)
	AxisBounds(by, -0.25, -0.1875)
	prods := make([]Interval, NumCoeffs(5))
	Products(prods, bx, by, 5)
	return func() { boundsSink, _ = s.BoundsOf(prods) }
}

// boundsOf4Op is one split branch-and-bound box: the coefficient pass over
// its four children's precomputed Products.
func boundsOf4Op() func() {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	bx, by := make([]Interval, 6), make([]Interval, 6)
	m := NumCoeffs(5)
	prods := make([]Interval, 4*m)
	for c := 0; c < 4; c++ {
		x1, y1 := -0.5+float64(c&1)/32, -0.25+float64(c>>1)/32
		AxisBounds(bx, x1, x1+1.0/32)
		AxisBounds(by, y1, y1+1.0/32)
		Products(prods[c*m:(c+1)*m], bx, by, 5)
	}
	return func() {
		lo, _ := s.BoundsOf4(prods[:m], prods[m:2*m], prods[2*m:3*m], prods[3*m:])
		boundsSink = lo[0]
	}
}

func BenchmarkBounds(b *testing.B) { benchOp(b, boundsOp()) }

func BenchmarkBoundsOf(b *testing.B) { benchOp(b, boundsOfOp()) }

func BenchmarkBoundsOf4(b *testing.B) { benchOp(b, boundsOf4Op()) }

// boundsSink keeps the bounds benchmarks' calls from being optimized away.
var boundsSink float64
