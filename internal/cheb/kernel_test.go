package cheb

import (
	"math"
	"math/rand"
	"testing"
)

// referenceAddBoxDelta is AddBoxDelta as it stood before the kernel was split
// into BoxFactors and AddOuter — both axes' factors recomputed per call, every
// endpoint through math.Acos and math.Sincos, four multiplies per coefficient
// — kept as the reference of the PA tolerance contract's cross-kernel clause
// (DESIGN.md): the kernel that replaced it stays within coeffTolerance of it.
func referenceAddBoxDelta(s *Series2D, x1, y1, x2, y2, value float64) {
	x1, x2 = clamp(x1, -1, 1), clamp(x2, -1, 1)
	y1, y2 = clamp(y1, -1, 1), clamp(y2, -1, 1)
	if x2 <= x1 || y2 <= y1 || value == 0 {
		return
	}
	k := s.K
	ax, ay := make([]float64, k+1), make([]float64, k+1)
	referenceBoxFactors(ax, x1, x2)
	referenceBoxFactors(ay, y1, y2)
	scale := value / (math.Pi * math.Pi)
	idx := 0
	for i := 0; i <= k; i++ {
		ci := 2.0
		if i == 0 {
			ci = 1
		}
		for j := 0; j <= k-i; j++ {
			cj := 2.0
			if j == 0 {
				cj = 1
			}
			s.A[idx] += scale * ci * cj * ax[i] * ay[j]
			idx++
		}
	}
}

func referenceBoxFactors(a []float64, z1, z2 float64) {
	th1 := math.Acos(z1)
	th2 := math.Acos(z2)
	a[0] = th1 - th2
	if len(a) == 1 {
		return
	}
	s1, c1 := math.Sincos(th1)
	s2, c2 := math.Sincos(th2)
	si1, ci1 := s1, c1
	si2, ci2 := s2, c2
	for i := 1; i < len(a); i++ {
		a[i] = (si1 - si2) / float64(i)
		si1, ci1 = si1*c1+ci1*s1, ci1*c1-si1*s1
		si2, ci2 = si2*c2+ci2*s2, ci2*c2-si2*s2
	}
}

// kernelCoord draws an interval endpoint: mostly interior, often exactly
// ±1 (a box cut by a cell edge) and sometimes outside [-1, 1] (clipped).
func kernelCoord(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return -1
	case 1:
		return 1
	case 2:
		return rng.Float64()*4 - 2
	default:
		return rng.Float64()*2 - 1
	}
}

// coeffTolerance is the cross-kernel clause of the PA tolerance contract for
// accumulated coefficients: after any stream of boxes, every coefficient is
// within coeffTolerance times the sum of the |value|s added so far of the
// reference kernel's.
const coeffTolerance = 1e-12

// TestSplitKernelMatchesReference accumulates a random stream of boxes
// (interior, cut at ±1, clipped, clipped to empty, inverted, negative and
// zero values) into each of degrees 0..7 by three routes — the pre-split
// trigonometric kernel, AddBoxDelta, and BoxFactors x2 + AddOuter as the
// surface calls them. The two routes through the product kernel are the same
// binary and must agree on float bits; against the reference every
// coefficient stays within the contract's bound after every box.
func TestSplitKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 0; k <= 7; k++ {
		ref, _ := NewSeries2D(k)
		whole, _ := NewSeries2D(k)
		halves, _ := NewSeries2D(k)
		ax, ay := make([]float64, k+1), make([]float64, k+1)
		var sumAbs float64
		for n := 0; n < 2000; n++ {
			x1, x2 := kernelCoord(rng), kernelCoord(rng)
			y1, y2 := kernelCoord(rng), kernelCoord(rng)
			if rng.Intn(8) != 0 && x2 < x1 {
				x1, x2 = x2, x1
			}
			if rng.Intn(8) != 0 && y2 < y1 {
				y1, y2 = y2, y1
			}
			value := rng.NormFloat64() / 900
			if rng.Intn(50) == 0 {
				value = 0
			}
			referenceAddBoxDelta(ref, x1, y1, x2, y2, value)
			whole.AddBoxDelta(x1, y1, x2, y2, value)
			if value != 0 && BoxFactors(ax, x1, x2) && BoxFactors(ay, y1, y2) {
				halves.AddOuter(ax, ay, value)
			}
			sumAbs += math.Abs(value)
			for i := range ref.A {
				if got, want := math.Float64bits(halves.A[i]), math.Float64bits(whole.A[i]); got != want {
					t.Fatalf("k=%d box %d [%g,%g]x[%g,%g] v=%g: BoxFactors+AddOuter coeff %d = %x, AddBoxDelta %x",
						k, n, x1, x2, y1, y2, value, i, got, want)
				}
				d := math.Abs(whole.A[i] - ref.A[i])
				if !(d <= coeffTolerance*sumAbs) {
					t.Fatalf("k=%d box %d [%g,%g]x[%g,%g] v=%g: coeff %d = %g, reference %g: off by %.3g, allowed %.3g",
						k, n, x1, x2, y1, y2, value, i, whole.A[i], ref.A[i], d, coeffTolerance*sumAbs)
				}
			}
		}
	}
}

// TestBoxFactorsClipsAndReportsEmpty covers the contract the surface leans
// on: the interval is clipped to [-1, 1] and an empty clipped interval is
// reported, not computed.
func TestBoxFactorsClipsAndReportsEmpty(t *testing.T) {
	dst := make([]float64, 6)
	for _, z := range [][2]float64{{0.5, 0.5}, {0.5, 0.2}, {1, 3}, {-3, -1}, {2, 3}} {
		if BoxFactors(dst, z[0], z[1]) {
			t.Errorf("BoxFactors(%g, %g) reported a non-empty interval", z[0], z[1])
		}
	}
	want := make([]float64, 6)
	if !BoxFactors(dst, -7, 7) || !BoxFactors(want, -1, 1) {
		t.Fatal("the full interval is not empty")
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Errorf("factor %d of [-7, 7] = %g, of [-1, 1] = %g", i, dst[i], want[i])
		}
	}
	if want[0] != math.Pi {
		t.Errorf("A_0 of the full interval = %g, want pi", want[0])
	}
}
