package cheb

import (
	"math"
	"testing"
)

// directBoxFactors is the naive implementation of Lemma 4's factors: one
// math.Sin call per degree instead of the angle-addition recurrence. Kept
// here as the ablation baseline for the update-cost optimization.
func directBoxFactors(a []float64, z1, z2 float64) {
	th1 := math.Acos(z1)
	th2 := math.Acos(z2)
	a[0] = th1 - th2
	for i := 1; i < len(a); i++ {
		a[i] = (math.Sin(float64(i)*th1) - math.Sin(float64(i)*th2)) / float64(i)
	}
}

func TestBoxFactorsMatchDirect(t *testing.T) {
	for _, k := range []int{1, 3, 5, 8} {
		for _, z := range [][2]float64{{-0.9, -0.2}, {-0.5, 0.5}, {0.1, 0.99}, {-1, 1}} {
			fast := make([]float64, k+1)
			slow := make([]float64, k+1)
			BoxFactors(fast, z[0], z[1])
			directBoxFactors(slow, z[0], z[1])
			for i := range fast {
				if math.Abs(fast[i]-slow[i]) > 1e-12 {
					t.Fatalf("k=%d z=%v: factor %d: recurrence %g vs direct %g", k, z, i, fast[i], slow[i])
				}
			}
		}
	}
}

// BenchmarkBoxFactorsRecurrence and BenchmarkBoxFactorsDirect are the
// "sin-recurrence vs direct trig" ablation from DESIGN.md: the recurrence
// replaces O(k) Sin calls per dimension with O(k) multiplies.
func BenchmarkBoxFactorsRecurrence(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		BoxFactors(a, -0.4, 0.7)
	}
}

func BenchmarkBoxFactorsDirect(b *testing.B) {
	a := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		directBoxFactors(a, -0.4, 0.7)
	}
}
