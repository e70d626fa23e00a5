package pa

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pdr/internal/cheb"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// referenceDenseRegion is DenseRegion as it stood before the bounds table:
// the recursion carries the normalized box as four floats, halves it by
// midpoints and asks the series for Bounds — twenty arccosines a box — and
// Eval. Kept as the rectangle-for-rectangle reference of the table walk.
func referenceDenseRegion(s *Surface, qt motion.Tick, rho float64) geom.Region {
	floor := 2 * float64(s.cfg.G) / float64(s.cfg.MD)
	slot := s.slot(qt)
	var out geom.Region
	for gy := 0; gy < s.cfg.G; gy++ {
		for gx := 0; gx < s.cfg.G; gx++ {
			referenceBranch(s, slot[gy*s.cfg.G+gx], s.cellRect(gx, gy), -1, -1, 1, 1, rho, floor, &out)
		}
	}
	return out
}

func referenceBranch(s *Surface, series *cheb.Series2D, cell geom.Rect, x1, y1, x2, y2, rho, floor float64, out *geom.Region) {
	lo, hi := series.Bounds(x1, y1, x2, y2)
	if hi < rho {
		return
	}
	if lo >= rho {
		out.Add(s.denorm(cell, x1, y1, x2, y2))
		return
	}
	if x2-x1 <= floor && y2-y1 <= floor {
		cx, cy := (x1+x2)/2, (y1+y2)/2
		if series.Eval(cx, cy) >= rho {
			out.Add(s.denorm(cell, x1, y1, x2, y2))
		}
		return
	}
	mx, my := (x1+x2)/2, (y1+y2)/2
	referenceBranch(s, series, cell, x1, y1, mx, my, rho, floor, out)
	referenceBranch(s, series, cell, mx, y1, x2, my, rho, floor, out)
	referenceBranch(s, series, cell, x1, my, mx, y2, rho, floor, out)
	referenceBranch(s, series, cell, mx, my, x2, y2, rho, floor, out)
}

// sameRects reports whether two regions hold the same rectangles, float bit
// for float bit, in the same order.
func sameRects(a, b geom.Region) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i, r := range a {
		q := b[i]
		if bits(r.MinX) != bits(q.MinX) || bits(r.MinY) != bits(q.MinY) || bits(r.MaxX) != bits(q.MaxX) || bits(r.MaxY) != bits(q.MaxY) {
			return false
		}
	}
	return true
}

// TestDenseRegionMatchesReferenceWalk pins the table walk to the recursion it
// replaced: the same rectangles in the same order (hence, coalesced, the same
// answer) and the same box count, over grids, degrees and resolution floors
// whose leaf level falls on and off a power of two, for thresholds from 0
// (everything dense at the root) to above the surface's maximum (nothing).
func TestDenseRegionMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range []int{1, 3, 10} {
		for _, md := range []int{g - 1, g, 3 * g, 100, 256, 1000} {
			degree := 1 + rng.Intn(6)
			t.Run(fmt.Sprintf("G=%d/MD=%d/K=%d", g, md, degree), func(t *testing.T) {
				s, err := New(Config{Area: area1000(), G: g, Degree: degree, Horizon: 1, L: 80, MD: md})
				if err != nil {
					t.Fatal(err)
				}
				s.Advance(0)
				for _, st := range clusterStates(rng, 120, 300+400*rng.Float64(), 300+400*rng.Float64(), 40+80*rng.Float64()) {
					st.Vel = geom.Vec{X: 8 * rng.NormFloat64(), Y: 8 * rng.NormFloat64()}
					s.Insert(st)
				}
				peak := 0.0
				for i := 0; i < 400; i++ {
					p := geom.Point{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()}
					peak = math.Max(peak, s.Density(0, p))
				}
				emitted := 0
				for _, frac := range []float64{0, 1e-9, 0.05, 0.2, 0.5, 0.8, 1, 1.5, 40} {
					for qt := motion.Tick(0); qt <= 1; qt++ {
						rho := frac * peak
						want := referenceDenseRegion(s, qt, rho)
						got, stats, err := s.DenseRegionStats(qt, rho)
						if err != nil {
							t.Fatal(err)
						}
						if stats.Rects != len(want) || stats.Leaves > stats.Boxes || stats.Boxes < g*g {
							t.Fatalf("rho=%g t=%d: stats %+v, the reference emits %d rectangles over %d cells", rho, qt, stats, len(want), g*g)
						}
						emitted += len(want)
						// The walk's emission order is visible only before the
						// union; coalescing is deterministic, so equal input
						// is equal output — and is what the caller gets.
						raw := walk{s: s, rho: rho}
						raw.cells(s.slot(qt))
						if !sameRects(raw.out, want) {
							t.Fatalf("rho=%g t=%d: the walk emits %d rectangles, the reference %d, or in another order", rho, qt, len(raw.out), len(want))
						}
						if !sameRects(got, geom.CoalesceInPlace(want)) || (len(want) == 0 && got != nil) {
							t.Fatalf("rho=%g t=%d: DenseRegion differs from the coalesced reference (nil when empty)", rho, qt)
						}
					}
				}
				if emitted == 0 {
					t.Fatal("no threshold produced a rectangle: the comparison pins nothing")
				}
			})
		}
	}
}

// TestBoundsTableDepth checks the leaf level against the rule the recursion
// applied — halve until the side is within the floor — at the defaults and at
// the edges: a floor of a whole cell decides the root by its centre.
func TestBoundsTableDepth(t *testing.T) {
	for _, c := range []struct{ g, md, depth int }{
		{10, 256, 5}, {10, 320, 5}, {10, 321, 6}, {10, 10, 0}, {10, 11, 1}, {1, 1000, 10}, {1, 1024, 10}, {3, 9, 2},
	} {
		tab := newBoundsTable(Config{G: c.g, MD: c.md, Degree: 5})
		if tab.depth != c.depth || len(tab.iv) != (2<<c.depth-1)*6 || len(tab.leafT) != 6<<c.depth {
			t.Errorf("G=%d MD=%d: depth %d with %d bounds and %d leaf values, want depth %d", c.g, c.md, tab.depth, len(tab.iv), len(tab.leafT), c.depth)
		}
	}
}

// TestDenseRegionConcurrent runs the walk from many goroutines at once over
// one surface (run under -race): the table is immutable after New and the
// walk's state is its own.
func TestDenseRegionConcurrent(t *testing.T) {
	s := newSurface(t, 4, 5, 0, 60)
	s.Advance(0)
	for _, st := range clusterStates(rand.New(rand.NewSource(4)), 300, 450, 550, 60) {
		s.Insert(st)
	}
	rho := 0.5 * s.Density(0, geom.Point{X: 450, Y: 550})
	want := geom.CoalesceInPlace(referenceDenseRegion(s, 0, rho))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := s.DenseRegion(0, rho)
				if err != nil || !sameRects(got, want) {
					t.Errorf("concurrent DenseRegion: %d rectangles, err %v; want %d", len(got), err, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
