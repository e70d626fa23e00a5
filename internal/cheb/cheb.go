// Package cheb provides the Chebyshev-polynomial machinery behind the PDR
// paper's approximation method (Sec. 6): evaluation of Chebyshev polynomials
// of the first kind, sound lower/upper bounds of T_i over subintervals of
// [-1, 1], and truncated two-dimensional Chebyshev series of bounded total
// degree with the closed-form coefficient increments of the paper's Lemma 4.
package cheb

import (
	"fmt"
	"math"
	"sync"
)

// T evaluates the Chebyshev polynomial of the first kind T_k at x using the
// three-term recurrence (stable for |x| <= 1 and exact for the small degrees
// used here).
func T(k int, x float64) float64 {
	switch k {
	case 0:
		return 1
	case 1:
		return x
	}
	tm, t := 1.0, x
	for i := 2; i <= k; i++ {
		tm, t = t, 2*x*t-tm
	}
	return t
}

// Interval is a closed interval [Lo, Hi] of Chebyshev-polynomial values.
type Interval struct{ Lo, Hi float64 }

// AxisBounds fills dst[i] with sound lower and upper bounds of T_i over
// [z1, z2] (a subinterval of [-1, 1]) for every degree i < len(dst).
// T_i(x) = cos(i*arccos x); its extrema inside the interval are the points
// where i*arccos(x) crosses a multiple of pi: odd multiples give -1, even
// multiples give +1. Otherwise the extremes are at the endpoints.
//
// It is the one-dimensional half of Series2D.Bounds: each endpoint's arccos is
// taken once for all degrees, and a caller bounding many boxes over the same
// intervals (pa.Surface's branch-and-bound) computes each interval once.
func AxisBounds(dst []Interval, z1, z2 float64) {
	if z1 > z2 {
		z1, z2 = z2, z1
	}
	z1 = clamp(z1, -1, 1)
	z2 = clamp(z2, -1, 1)
	// arccos is decreasing: theta runs over [th2, th1].
	th1, th2 := math.Acos(z1), math.Acos(z2)
	// Endpoint values via the recurrence so they agree exactly with Eval
	// (cos(acos(z)) round-trips with epsilon error and would make a bound
	// minutely unsound).
	pm1, p1 := 1.0, z1 // T_i-1(z1), T_i(z1)
	pm2, p2 := 1.0, z2
	for i := range dst {
		if i == 0 {
			dst[0] = Interval{1, 1}
			continue
		}
		lo, hi := min(p1, p2), max(p1, p2)
		// Interior extrema of cos(i*theta) are the multiples of pi inside
		// [i*th2, i*th1]. The range is widened by a hair so rounding can only
		// add extrema (wider bounds stay sound).
		kLo := int(math.Ceil(float64(i)*th2/math.Pi - 1e-12))
		kHi := int(math.Floor(float64(i)*th1/math.Pi + 1e-12))
		for k := kLo; k <= kHi; k++ {
			if k%2 == 0 {
				hi = 1
			} else {
				lo = -1
			}
		}
		dst[i] = Interval{lo, hi}
		pm1, p1 = p1, 2*z1*p1-pm1
		pm2, p2 = p2, 2*z2*p2-pm2
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Series2D is a truncated two-dimensional Chebyshev series
//
//	f(x, y) ~ sum_{i+j <= K} A[i,j] T_i(x) T_j(y),  x, y in [-1, 1],
//
// with coefficients packed row-major over the triangular index set.
type Series2D struct {
	K int
	A []float64
}

// NumCoeffs returns the number of coefficients of a total-degree-K series:
// (K+1)(K+2)/2 (the paper's storage formula).
func NumCoeffs(k int) int { return (k + 1) * (k + 2) / 2 }

// evalScratch holds the per-call working buffers of the evaluation kernels
// (T_i value vectors, Lemma-4 factors, per-degree bounds) for callers that
// bring none: Eval, Bounds and AddBoxDelta run once per density probe and
// per movement update, so the scratch lives in a sync.Pool rather than being
// made fresh each call (EvalFrom, BoundsFrom and AddOuter take the caller's). It
// cannot live on Series2D itself: any number of readers evaluate the same
// series concurrently under the engine's read lock.
type evalScratch struct {
	tx, ty []float64  // Eval: T_i(x), T_j(y)
	ax, ay []float64  // AddBoxDelta: Lemma-4 one-dimensional factors
	bx, by []Interval // Bounds: per-degree interval bounds
}

// scratches pools evaluation scratch across goroutines; buffers grow to the
// largest degree evaluated and are reused across calls.
var scratches = sync.Pool{New: func() any { return new(evalScratch) }}

// grow returns buf resized to length n, reallocating only when the capacity
// is insufficient. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// NewSeries2D returns the zero series of total degree k.
func NewSeries2D(k int) (*Series2D, error) {
	if k < 0 {
		return nil, fmt.Errorf("cheb: negative degree %d", k)
	}
	return &Series2D{K: k, A: make([]float64, NumCoeffs(k))}, nil
}

// Index returns the packed position of coefficient (i, j); i+j must be <= K.
func (s *Series2D) Index(i, j int) int {
	// Row i starts after rows 0..i-1, which hold (K+1) + K + ... +
	// (K+2-i) = i*(K+1) - i*(i-1)/2 coefficients.
	return i*(s.K+1) - i*(i-1)/2 + j
}

// At returns coefficient (i, j).
func (s *Series2D) At(i, j int) float64 { return s.A[s.Index(i, j)] }

// Eval evaluates the series at (x, y) in [-1, 1]^2.
//
// pdr:hot — PA evaluation root for the hotpath analyzer family
// (docs/LINT.md); called per density probe.
func (s *Series2D) Eval(x, y float64) float64 {
	k := s.K
	sc := scratches.Get().(*evalScratch)
	sc.tx = grow(sc.tx, k+1)
	sc.ty = grow(sc.ty, k+1)
	Vals(sc.tx, x)
	Vals(sc.ty, y)
	sum := s.EvalFrom(sc.tx, sc.ty)
	scratches.Put(sc)
	return sum
}

// EvalFrom is Eval given Vals of the point's two coordinates (K+1 values
// each): a caller evaluating on a lattice computes each vector once.
//
// pdr:hot — PA evaluation root for the hotpath analyzer family
// (docs/LINT.md); called per branch-and-bound leaf.
func (s *Series2D) EvalFrom(tx, ty []float64) float64 {
	k := s.K
	var sum float64
	idx := 0
	for i := 0; i <= k; i++ {
		var row float64
		for j := 0; j <= k-i; j++ {
			row += s.A[idx] * ty[j]
			idx++
		}
		sum += row * tx[i]
	}
	return sum
}

// Vals fills t with T_0(x)..T_len(t)-1(x).
func Vals(t []float64, x float64) {
	t[0] = 1
	if len(t) > 1 {
		t[1] = x
	}
	for i := 2; i < len(t); i++ {
		t[i] = 2*x*t[i-1] - t[i-2]
	}
}

// AddScaled adds w times o to s (both must have the same degree).
func (s *Series2D) AddScaled(o *Series2D, w float64) {
	for i := range s.A {
		s.A[i] += w * o.A[i]
	}
}

// Reset zeroes all coefficients.
func (s *Series2D) Reset() {
	for i := range s.A {
		s.A[i] = 0
	}
}

// AddBoxDelta adds to the series the Chebyshev approximation of
// value * indicator([x1,x2] x [y1,y2]) using the closed form of the paper's
// Lemma 4:
//
//	a_ij += c_ij/pi^2 * value * Ax_i * Ay_j
//	Ax_0 = arccos(x1) - arccos(x2)
//	Ax_i = (sin(i*arccos(x1)) - sin(i*arccos(x2))) / i        (i > 0)
//
// with c_ij = 4, or 2 when exactly one of i, j is zero, or 1 when both are.
// Deletions pass a negative value. The box is clipped to [-1, 1]^2; an empty
// clipped box is a no-op.
//
// The increment is separable: BoxFactors computes the Ax and Ay vectors and
// AddOuter accumulates their outer product, which is all AddBoxDelta does. A
// caller adding one box to a grid of series (pa.Surface) calls the halves
// itself, so a factor vector shared by a row or column of cells is computed
// once.
//
// pdr:hot — Lemma-4 update root for the hotpath analyzer family
// (docs/LINT.md); runs once per movement update.
func (s *Series2D) AddBoxDelta(x1, y1, x2, y2, value float64) {
	if value == 0 {
		return
	}
	k := s.K
	sc := scratches.Get().(*evalScratch)
	sc.ax = grow(sc.ax, k+1)
	sc.ay = grow(sc.ay, k+1)
	if BoxFactors(sc.ax, x1, x2) && BoxFactors(sc.ay, y1, y2) {
		s.AddOuter(sc.ax, sc.ay, value)
	}
	scratches.Put(sc)
}

// AddOuter adds value/pi^2 * c_ij * ax[i] * ay[j] to every coefficient
// (i, j): the two-dimensional half of Lemma 4, given the one-dimensional
// factors BoxFactors computed for each axis. ax and ay must hold at least
// K+1 values.
//
// pdr:hot — Lemma-4 accumulate root for the hotpath analyzer family
// (docs/LINT.md); runs once per overlapped polynomial cell, timestamp and
// movement update.
func (s *Series2D) AddOuter(ax, ay []float64, value float64) {
	k := s.K
	scale := value / (math.Pi * math.Pi)
	idx := 0
	for i, a := range ax[:k+1] {
		// value/pi^2 and c_i go into the x factor once per row, c_j into one
		// doubling after column 0. Scaling by two is exact, so the increments
		// are the bits of scale*c_i*c_j*ax[i]*ay[j].
		sx := scale * a
		if i > 0 {
			sx *= 2
		}
		row := s.A[idx : idx+k+1-i]
		col := ay[:len(row)]
		row[0] += sx * col[0]
		sx *= 2
		for j := 1; j < len(row); j++ {
			row[j] += sx * col[j]
		}
		idx += len(row)
	}
}

// BoxFactors fills dst with the one-dimensional factors A_0..A_len(dst)-1 of
// Lemma 4 for the interval [z1, z2] clipped to [-1, 1]. It reports false,
// leaving dst unspecified, when the clipped interval is empty.
//
// No endpoint's angle is ever taken. With theta = arccos z, cos(theta) is z
// itself and sin(theta) is sqrt(1-z^2) — written (1-z)(1+z) so nothing
// cancels near the edges, and exactly 0 at z = ±1, where a polynomial-cell
// edge cuts a box; sin(i*theta) follows by the angle-addition recurrence;
// and A_0 = theta1 - theta2, an angle in (0, pi], is the one arctangent of
// its own sine and cosine, sin(theta1)cos(theta2) - cos(theta1)sin(theta2)
// and cos(theta1)cos(theta2) + sin(theta1)sin(theta2). The cost is two square
// roots, one atan2 and O(K) multiplies; every factor is within 4e-14 of the
// closed form evaluated through math.Acos and math.Sin (DESIGN.md, "PA
// tolerance contract").
//
// pdr:hot — Lemma-4 factor root for the hotpath analyzer family
// (docs/LINT.md); runs once per overlapped polynomial-cell row or column,
// timestamp and movement update.
func BoxFactors(dst []float64, z1, z2 float64) bool {
	z1, z2 = clamp(z1, -1, 1), clamp(z2, -1, 1)
	if z2 <= z1 {
		return false
	}
	s1, c1 := math.Sqrt((1-z1)*(1+z1)), z1
	s2, c2 := math.Sqrt((1-z2)*(1+z2)), z2
	// The sine of the difference is never negative (theta1 > theta2), and at
	// [-1, 1] it is +0 beside a cosine of -1: atan2 gives +pi, not -pi.
	dst[0] = math.Atan2(s1*c2-c1*s2, c1*c2+s1*s2)
	si1, ci1 := s1, c1 // sin(i*theta1), cos(i*theta1)
	si2, ci2 := s2, c2
	for i := 1; i < len(dst); i++ {
		dst[i] = (si1 - si2) / float64(i)
		si1, ci1 = si1*c1+ci1*s1, ci1*c1-si1*s1
		si2, ci2 = si2*c2+ci2*s2, ci2*c2-si2*s2
	}
	return true
}

// Bounds returns sound lower and upper bounds of the series over the box
// [x1, x2] x [y1, y2] (within [-1, 1]^2), obtained by interval arithmetic
// over per-term Chebyshev bounds (paper Sec. 6.3): AxisBounds of each axis
// interval, then BoundsFrom, the way AddBoxDelta is BoxFactors and AddOuter.
//
// pdr:hot — PA bound root for the hotpath analyzer family (docs/LINT.md).
func (s *Series2D) Bounds(x1, y1, x2, y2 float64) (lo, hi float64) {
	k := s.K
	sc := scratches.Get().(*evalScratch)
	sc.bx = grow(sc.bx, k+1)
	sc.by = grow(sc.by, k+1)
	AxisBounds(sc.bx, x1, x2)
	AxisBounds(sc.by, y1, y2)
	lo, hi = s.BoundsFrom(sc.bx, sc.by)
	scratches.Put(sc)
	return lo, hi
}

// BoundsFrom is the two-dimensional half of Bounds: given AxisBounds of the
// box's x and y intervals it sums a_ij * (bx[i] * by[j]) in interval
// arithmetic. The extremes of the four endpoint products are picked by plain
// comparisons, not math.Min/Max calls: the two differ only in the sign of a
// zero, which neither the sums nor a threshold comparison can see.
//
// pdr:hot — PA bound root for the hotpath analyzer family (docs/LINT.md);
// called per branch-and-bound box.
func (s *Series2D) BoundsFrom(bx, by []Interval) (lo, hi float64) {
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
