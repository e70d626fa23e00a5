package cheb

import (
	"math"
	"math/rand"
	"testing"
)

// directBoxFactors is Lemma 4's closed form as the paper prices it — arccos
// of each endpoint and one math.Sin call per degree — for an interval inside
// [-1, 1]. It is the ablation baseline for the update-cost optimization and
// the reference BoxFactors' tolerance is stated against (DESIGN.md, "PA
// tolerance contract").
func directBoxFactors(a []float64, z1, z2 float64) {
	th1 := math.Acos(z1)
	th2 := math.Acos(z2)
	a[0] = th1 - th2
	for i := 1; i < len(a); i++ {
		a[i] = (math.Sin(float64(i)*th1) - math.Sin(float64(i)*th2)) / float64(i)
	}
}

// factorTolerance is the cross-kernel clause of the PA tolerance contract:
// every factor BoxFactors computes is within this absolute distance of
// directBoxFactors'.
const factorTolerance = 4e-14

func checkFactorsMatchDirect(t *testing.T, k int, z1, z2 float64) {
	t.Helper()
	fast := make([]float64, k+1)
	slow := make([]float64, k+1)
	if !BoxFactors(fast, z1, z2) {
		t.Fatalf("k=%d [%v, %v]: reported empty", k, z1, z2)
	}
	directBoxFactors(slow, clamp(z1, -1, 1), clamp(z2, -1, 1))
	for i := range fast {
		if d := math.Abs(fast[i] - slow[i]); !(d <= factorTolerance) {
			t.Fatalf("k=%d [%v, %v]: factor %d = %v, direct %v (off by %.3g, tolerance %g)",
				k, z1, z2, i, fast[i], slow[i], d, factorTolerance)
		}
	}
}

// TestBoxFactorsMatchDirect holds BoxFactors to the closed form over the
// cases its arithmetic branches on — the full interval, an endpoint exactly
// on an edge of [-1, 1] (a box cut by a polynomial-cell edge), intervals one
// ulp wide — and over 1e5 random intervals of widths 1e-9..2 whose endpoints
// land inside, on and beyond ±1, at every degree 0..8.
func TestBoxFactorsMatchDirect(t *testing.T) {
	full := make([]float64, 3)
	if !BoxFactors(full, -1, 1) || full[0] != math.Pi || full[1] != 0 || full[2] != 0 {
		t.Errorf("factors of [-1, 1] = %v, want [pi 0 0] (A_0 is +pi, not -pi)", full)
	}
	for k := 0; k <= 8; k++ {
		for _, z := range []float64{-1, -0.999999, -0.9, -0.5, -1e-9, 0, 1e-300, 0.2, 0.7, 0.99, 1 - 1e-12} {
			up := math.Nextafter(z, 2)
			checkFactorsMatchDirect(t, k, z, up) // one ulp wide
			if z != -1 {
				checkFactorsMatchDirect(t, k, -1, z)
				checkFactorsMatchDirect(t, k, -7, z)
			}
			checkFactorsMatchDirect(t, k, z, 1)
			checkFactorsMatchDirect(t, k, z, 7)
		}
		checkFactorsMatchDirect(t, k, math.Nextafter(1, 0), 1)
		checkFactorsMatchDirect(t, k, -1, 1)
	}
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 100000; n++ {
		k := rng.Intn(9)
		width := math.Pow(10, -9*rng.Float64()) * 2 // 2e-9..2
		z1 := rng.Float64()*(2+width) - 1 - width   // [-1-width, 1): both ends can clip
		z2 := z1 + width
		switch rng.Intn(8) {
		case 0:
			z1 = -1
		case 1:
			z2 = 1
		}
		if !(clamp(z1, -1, 1) < clamp(z2, -1, 1)) {
			continue
		}
		checkFactorsMatchDirect(t, k, z1, z2)
	}
}

// The "sin-recurrence vs direct trig" ablation from DESIGN.md, in three
// rungs: BenchmarkBoxFactorsDirect is the paper's arccos + one sin per
// degree; BenchmarkBoxFactorsRecurrence replaces the O(k) sin calls with O(k)
// multiplies behind an arccos and a sincos per endpoint (the kernel until
// PR 24, kept as referenceBoxFactors); BenchmarkBoxFactorsInterior and
// BenchmarkBoxFactorsEdge are BoxFactors itself — no trigonometry but one
// atan2 — on an interior interval and on one a cell edge cuts.
func BenchmarkBoxFactorsDirect(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		directBoxFactors(a, -0.4, 0.7)
	}
}

func BenchmarkBoxFactorsRecurrence(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		referenceBoxFactors(a, -0.4, 0.7)
	}
}

func BenchmarkBoxFactorsInterior(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		BoxFactors(a, -0.4, 0.7)
	}
}

func BenchmarkBoxFactorsEdge(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		BoxFactors(a, -1, 0.7)
	}
}
