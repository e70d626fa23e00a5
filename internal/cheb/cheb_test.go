package cheb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTKnownPolynomials(t *testing.T) {
	xs := []float64{-1, -0.7, -0.3, 0, 0.25, 0.5, 0.9, 1}
	for _, x := range xs {
		if got := T(0, x); got != 1 {
			t.Errorf("T0(%g) = %g", x, got)
		}
		if got := T(1, x); got != x {
			t.Errorf("T1(%g) = %g", x, got)
		}
		if got, want := T(2, x), 2*x*x-1; math.Abs(got-want) > 1e-12 {
			t.Errorf("T2(%g) = %g, want %g", x, got, want)
		}
		if got, want := T(3, x), 4*x*x*x-3*x; math.Abs(got-want) > 1e-12 {
			t.Errorf("T3(%g) = %g, want %g", x, got, want)
		}
		if got, want := T(5, x), math.Cos(5*math.Acos(x)); math.Abs(got-want) > 1e-9 {
			t.Errorf("T5(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestBoundKnownCases(t *testing.T) {
	// T1 over [a, b] is just [a, b].
	lo, hi := bound(1, -0.5, 0.25)
	if lo != -0.5 || hi != 0.25 {
		t.Errorf("Bound(1) = [%g, %g], want [-0.5, 0.25]", lo, hi)
	}
	// T2 over [-1, 1] hits both extremes.
	lo, hi = bound(2, -1, 1)
	if lo != -1 || hi != 1 {
		t.Errorf("Bound(2, full) = [%g, %g], want [-1, 1]", lo, hi)
	}
	// T0 is constant 1.
	lo, hi = bound(0, -0.9, 0.9)
	if lo != 1 || hi != 1 {
		t.Errorf("Bound(0) = [%g, %g], want [1, 1]", lo, hi)
	}
	// Reversed interval is normalized.
	lo1, hi1 := bound(3, 0.8, -0.2)
	lo2, hi2 := bound(3, -0.2, 0.8)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("Bound must normalize reversed intervals")
	}
}

func TestQuickBoundSoundAndTight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := rng.Intn(8)
		z1 := rng.Float64()*2 - 1
		z2 := z1 + rng.Float64()*(1-z1)
		lo, hi := bound(i, z1, z2)
		worstLo, worstHi := math.Inf(1), math.Inf(-1)
		for k := 0; k <= 400; k++ {
			x := z1 + (z2-z1)*float64(k)/400
			v := T(i, x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false // unsound
			}
			worstLo = math.Min(worstLo, v)
			worstHi = math.Max(worstHi, v)
		}
		// Tightness: the bound interval should not exceed the sampled range
		// by more than the sampling resolution allows (coarse check).
		return lo >= worstLo-0.1 && hi <= worstHi+0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeriesIndexPacking(t *testing.T) {
	s, err := NewSeries2D(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.A) != NumCoeffs(5) || NumCoeffs(5) != 21 {
		t.Fatalf("NumCoeffs(5) = %d, len(A) = %d, want 21", NumCoeffs(5), len(s.A))
	}
	seen := map[int]bool{}
	for i := 0; i <= 5; i++ {
		for j := 0; j <= 5-i; j++ {
			idx := s.Index(i, j)
			if idx < 0 || idx >= len(s.A) {
				t.Fatalf("Index(%d,%d) = %d out of range", i, j, idx)
			}
			if seen[idx] {
				t.Fatalf("Index(%d,%d) = %d collides", i, j, idx)
			}
			seen[idx] = true
		}
	}
	if _, err := NewSeries2D(-1); err == nil {
		t.Error("negative degree must be rejected")
	}
}

func TestSeriesEvalMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, _ := NewSeries2D(4)
	for i := range s.A {
		s.A[i] = rng.NormFloat64()
	}
	for trial := 0; trial < 200; trial++ {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		var want float64
		for i := 0; i <= 4; i++ {
			for j := 0; j <= 4-i; j++ {
				want += s.At(i, j) * T(i, x) * T(j, y)
			}
		}
		if got := s.Eval(x, y); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Eval(%g,%g) = %g, want %g", x, y, got, want)
		}
	}
}

// quadratureBoxCoeff computes the (i, j) Chebyshev coefficient of the box
// indicator by Gauss-Chebyshev quadrature — an oracle independent of the
// closed form in AddBoxDelta.
func quadratureBoxCoeff(i, j int, x1, y1, x2, y2 float64, m int) float64 {
	ci := 2.0
	if i == 0 {
		ci = 1
	}
	cj := 2.0
	if j == 0 {
		cj = 1
	}
	var sx, sy float64
	for p := 0; p < m; p++ {
		th := (float64(p) + 0.5) * math.Pi / float64(m)
		x := math.Cos(th)
		if x >= x1 && x <= x2 {
			sx += math.Cos(float64(i) * th)
		}
		if x >= y1 && x <= y2 {
			sy += math.Cos(float64(j) * th)
		}
	}
	// Gauss-Chebyshev: integral = (pi/m) * sum; coefficient carries c/pi^2.
	return ci * cj / (math.Pi * math.Pi) * (math.Pi / float64(m) * sx) * (math.Pi / float64(m) * sy)
}

func TestAddBoxDeltaMatchesQuadrature(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		x1 := rng.Float64()*1.6 - 0.9
		x2 := x1 + 0.05 + rng.Float64()*(0.9-x1)
		y1 := rng.Float64()*1.6 - 0.9
		y2 := y1 + 0.05 + rng.Float64()*(0.9-y1)
		s, _ := NewSeries2D(5)
		s.AddBoxDelta(x1, y1, x2, y2, 1)
		for i := 0; i <= 5; i++ {
			for j := 0; j <= 5-i; j++ {
				want := quadratureBoxCoeff(i, j, x1, y1, x2, y2, 200000)
				if got := s.At(i, j); math.Abs(got-want) > 1e-3 {
					t.Fatalf("trial %d: coeff(%d,%d) = %g, quadrature %g (box [%g,%g]x[%g,%g])",
						trial, i, j, got, want, x1, x2, y1, y2)
				}
			}
		}
	}
}

func TestAddBoxDeltaLinearity(t *testing.T) {
	a, _ := NewSeries2D(3)
	b, _ := NewSeries2D(3)
	a.AddBoxDelta(-0.5, -0.5, 0.5, 0.5, 2)
	b.AddBoxDelta(-0.5, -0.5, 0.5, 0.5, 1)
	b.AddBoxDelta(-0.5, -0.5, 0.5, 0.5, 1)
	for i := range a.A {
		if math.Abs(a.A[i]-b.A[i]) > 1e-12 {
			t.Fatalf("coefficient %d: %g != %g", i, a.A[i], b.A[i])
		}
	}
}

func TestInsertDeleteCancelsExactly(t *testing.T) {
	// A delete recomputes the identical increment and subtracts it; the
	// coefficients must return to zero bit-for-bit.
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.3, 0.1, 0.4, 0.9, 1.0/900)
	s.AddBoxDelta(-0.3, 0.1, 0.4, 0.9, -1.0/900)
	for i, v := range s.A {
		if v != 0 {
			t.Fatalf("coefficient %d = %g after insert+delete, want exact 0", i, v)
		}
	}
}

func TestAddBoxDeltaDegenerate(t *testing.T) {
	s, _ := NewSeries2D(4)
	s.AddBoxDelta(0.5, 0.5, 0.5, 0.9, 1) // zero width
	s.AddBoxDelta(2, 2, 3, 3, 1)         // fully outside, clipped to empty
	s.AddBoxDelta(-0.5, -0.5, 0.5, 0.5, 0)
	for i, v := range s.A {
		if v != 0 {
			t.Fatalf("degenerate boxes must be no-ops; coeff %d = %g", i, v)
		}
	}
}

func TestQuickSeriesBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := NewSeries2D(4)
		for i := range s.A {
			s.A[i] = rng.NormFloat64()
		}
		x1 := rng.Float64()*2 - 1
		x2 := x1 + rng.Float64()*(1-x1)
		y1 := rng.Float64()*2 - 1
		y2 := y1 + rng.Float64()*(1-y1)
		lo, hi := s.Bounds(x1, y1, x2, y2)
		for k := 0; k < 200; k++ {
			x := x1 + rng.Float64()*(x2-x1)
			y := y1 + rng.Float64()*(y2-y1)
			v := s.Eval(x, y)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	a, _ := NewSeries2D(2)
	a.AddBoxDelta(-0.5, -0.5, 0.5, 0.5, 1)
	a.Reset()
	for i, v := range a.A {
		if v != 0 {
			t.Fatalf("Reset left coeff %d = %g", i, v)
		}
	}
}

func BenchmarkAddBoxDelta(b *testing.B) {
	s, _ := NewSeries2D(5)
	for i := 0; i < b.N; i++ {
		s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1e-4)
	}
}

func BenchmarkSeriesEval(b *testing.B) {
	s, _ := NewSeries2D(5)
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(0.1, -0.2)
	}
}

// TestKernelsAllocationFree pins the hot kernels at zero steady-state
// allocations: after the scratch pool is warm, Eval, Bounds, AddBoxDelta and
// its two halves must not touch the heap (the zero-allocation contract documented in
// docs/PERFORMANCE.md).
func TestKernelsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	s, err := NewSeries2D(5)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBoxDelta(-0.4, -0.3, 0.2, 0.5, 1)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += s.Eval(0.1, -0.2)
	}); n != 0 {
		t.Errorf("Eval allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		lo, hi := s.Bounds(-0.5, -0.25, 0.5, 0.25)
		sink += lo + hi
	}); n != 0 {
		t.Errorf("Bounds allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.AddBoxDelta(-0.2, -0.2, 0.2, 0.2, 1)
		s.AddBoxDelta(-0.2, -0.2, 0.2, 0.2, -1)
	}); n != 0 {
		t.Errorf("AddBoxDelta allocates %v per run, want 0", n)
	}
	// The halves, as pa.Surface calls them with scratch of its own.
	ax, ay := make([]float64, s.K+1), make([]float64, s.K+1)
	if n := testing.AllocsPerRun(100, func() {
		if BoxFactors(ax, -1, 0.3) && BoxFactors(ay, -0.2, 1) {
			s.AddOuter(ax, ay, 1)
			s.AddOuter(ax, ay, -1)
		}
	}); n != 0 {
		t.Errorf("BoxFactors + AddOuter allocate %v per run, want 0", n)
	}
	_ = sink
}
