package sweep

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pdr/internal/geom"
)

// densityAt counts objects in the half-open-dual l-square neighborhood of p.
func densityAt(points []geom.Point, p geom.Point, l float64) int {
	n := 0
	for _, q := range points {
		if q.X > p.X-l/2 && q.X <= p.X+l/2 && q.Y > p.Y-l/2 && q.Y <= p.Y+l/2 {
			n++
		}
	}
	return n
}

// naiveDense computes the exact dense region inside cell by coordinate
// compression: every rectangle of the arrangement induced by the event
// coordinates has constant density, tested at its center. Independent oracle
// for DenseRects.
func naiveDense(points []geom.Point, cell geom.Rect, rho, l float64) geom.Region {
	threshold := int(math.Ceil(rho * l * l))
	xs := []float64{cell.MinX, cell.MaxX}
	ys := []float64{cell.MinY, cell.MaxY}
	for _, p := range points {
		for _, v := range []float64{p.X - l/2, p.X + l/2} {
			if v > cell.MinX && v < cell.MaxX {
				xs = append(xs, v)
			}
		}
		for _, v := range []float64{p.Y - l/2, p.Y + l/2} {
			if v > cell.MinY && v < cell.MaxY {
				ys = append(ys, v)
			}
		}
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	var out geom.Region
	for i := 0; i+1 < len(xs); i++ {
		if xs[i] == xs[i+1] {
			continue
		}
		for j := 0; j+1 < len(ys); j++ {
			if ys[j] == ys[j+1] {
				continue
			}
			// Density is constant on [xs[i], xs[i+1]) x [ys[j], ys[j+1]).
			// Test at the center: corners sit exactly on neighborhood
			// boundaries where (q+l/2)-l/2 round-off flips the strict
			// comparisons; centers are numerically robust.
			c := geom.Point{X: (xs[i] + xs[i+1]) / 2, Y: (ys[j] + ys[j+1]) / 2}
			if densityAt(points, c, l) >= threshold {
				out.Add(geom.Rect{MinX: xs[i], MinY: ys[j], MaxX: xs[i+1], MaxY: ys[j+1]})
			}
		}
	}
	return out
}

func regionsEqual(t *testing.T, got, want geom.Region, label string) {
	t.Helper()
	ga, wa := got.Area(), want.Area()
	if math.Abs(ga-wa) > 1e-6*(1+wa) {
		t.Fatalf("%s: area %g, want %g", label, ga, wa)
	}
	if d := got.DifferenceArea(want); d > 1e-6 {
		t.Fatalf("%s: got \\ want has area %g", label, d)
	}
	if d := want.DifferenceArea(got); d > 1e-6 {
		t.Fatalf("%s: want \\ got has area %g", label, d)
	}
}

func TestPaperExampleSingleCluster(t *testing.T) {
	// Four objects in a tight cluster; rho*l^2 = 4 with l=2 requires all
	// four inside one l-square.
	points := []geom.Point{{X: 5, Y: 5}, {X: 5.5, Y: 5}, {X: 5, Y: 5.5}, {X: 5.5, Y: 5.5}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := DenseRects(points, cell, 1, 2)
	if len(got) == 0 {
		t.Fatal("expected a dense region")
	}
	// Centers p whose l-square holds all four: p in [4.5, 6) x [4.5, 6).
	want := geom.Region{{MinX: 4.5, MinY: 4.5, MaxX: 6, MaxY: 6}}
	regionsEqual(t, got, want, "cluster")
}

func TestThresholdTooHigh(t *testing.T) {
	points := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if got := DenseRects(points, cell, 5, 1); len(got) != 0 {
		t.Fatalf("expected empty region, got %v", got)
	}
}

func TestZeroThresholdEverythingDense(t *testing.T) {
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	got := DenseRects(nil, cell, 0, 2)
	regionsEqual(t, got, geom.Region{cell}, "rho=0")
}

func TestEmptyCell(t *testing.T) {
	if got := DenseRects([]geom.Point{{X: 1, Y: 1}}, geom.Rect{}, 1, 2); got != nil {
		t.Fatalf("empty cell: got %v", got)
	}
	if got := DenseRects([]geom.Point{{X: 1, Y: 1}}, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1, 0); got != nil {
		t.Fatalf("l=0: got %v", got)
	}
}

func TestSingleObject(t *testing.T) {
	// One object, threshold 1: dense region is the influence square of the
	// object clipped to the cell.
	points := []geom.Point{{X: 5, Y: 5}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := DenseRects(points, cell, 1.0/4.0, 2) // rho*l^2 = 1
	want := geom.Region{{MinX: 4, MinY: 4, MaxX: 6, MaxY: 6}}
	regionsEqual(t, got, want, "single object")
}

func TestObjectOutsideInfluences(t *testing.T) {
	// Object just outside the cell still influences points near the edge.
	points := []geom.Point{{X: -0.5, Y: 5}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := DenseRects(points, cell, 1.0/4.0, 2)
	want := geom.Region{{MinX: 0, MinY: 4, MaxX: 0.5, MaxY: 6}}
	regionsEqual(t, got, want, "edge influence")
}

func TestHalfOpenBoundaryExactness(t *testing.T) {
	// Object at q: centers p with p.x in [q.x-l/2, q.x+l/2) are influenced.
	// With q.x = 5, l = 2: p.x in [4, 6). Verify the emitted region is
	// exactly half-open at both ends.
	points := []geom.Point{{X: 5, Y: 5}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := DenseRects(points, cell, 0.25, 2)
	if !got.Contains(geom.Point{X: 4, Y: 4}) {
		t.Error("left-closed boundary point (4,4) must be dense")
	}
	if got.Contains(geom.Point{X: 6, Y: 5}) {
		t.Error("right-open boundary point (6,5) must not be dense")
	}
	if got.Contains(geom.Point{X: 5, Y: 6}) {
		t.Error("top-open boundary point (5,6) must not be dense")
	}
}

func TestMatchesNaiveOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		cell := geom.Rect{MinX: 20, MinY: 20, MaxX: 60, MaxY: 60}
		l := 4 + rng.Float64()*10
		points := make([]geom.Point, n)
		for i := range points {
			// Place points around the cell, including its grown margin.
			points[i] = geom.Point{
				X: cell.MinX - l + rng.Float64()*(cell.Width()+2*l),
				Y: cell.MinY - l + rng.Float64()*(cell.Height()+2*l),
			}
		}
		rho := (1 + float64(rng.Intn(4))) / (l * l) // thresholds 1..4 objects
		got := DenseRects(points, cell, rho, l)
		want := naiveDense(points, cell, rho, l)
		regionsEqual(t, got, want, "random oracle")
	}
}

func TestMatchesNaiveOracleClustered(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
		l := 6.0
		var points []geom.Point
		for c := 0; c < 3; c++ {
			cx := rng.Float64() * 50
			cy := rng.Float64() * 50
			for k := 0; k < 15; k++ {
				points = append(points, geom.Point{
					X: cx + rng.NormFloat64()*3,
					Y: cy + rng.NormFloat64()*3,
				})
			}
		}
		rho := 6 / (l * l)
		got := DenseRects(points, cell, rho, l)
		want := naiveDense(points, cell, rho, l)
		regionsEqual(t, got, want, "clustered oracle")
	}
}

func TestCoincidentPoints(t *testing.T) {
	// Duplicate coordinates exercise event deduplication.
	points := []geom.Point{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := DenseRects(points, cell, 3.0/4.0, 2) // threshold 3
	want := geom.Region{{MinX: 4, MinY: 4, MaxX: 6, MaxY: 6}}
	regionsEqual(t, got, want, "coincident")
}

func TestOutputInsideCell(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cell := geom.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}
	points := make([]geom.Point, 100)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
	}
	got := DenseRects(points, cell, 2.0/9.0, 3)
	for _, r := range got {
		if !cell.ContainsRect(r) {
			t.Fatalf("output rect %v exceeds cell %v", r, cell)
		}
	}
}

func TestDensePointsSampledVerification(t *testing.T) {
	// Sample points inside and outside the reported region; verify density
	// against the threshold directly.
	rng := rand.New(rand.NewSource(77))
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	points := make([]geom.Point, 120)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	l := 8.0
	threshold := 10
	rho := float64(threshold) / (l * l)
	region := DenseRects(points, cell, rho, l)
	for trial := 0; trial < 3000; trial++ {
		p := geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		dense := densityAt(points, p, l) >= threshold
		if got := region.Contains(p); got != dense {
			t.Fatalf("point %v: region says %v, direct density says %v", p, got, dense)
		}
	}
}

func BenchmarkDenseRects200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	points := make([]geom.Point, 200)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseRects(points, cell, 4.0/100.0, 10)
	}
}
