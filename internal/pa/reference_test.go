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

// referenceWalkStats counts what a walk that visits one box at a time does:
// every box above the floor that it reaches is bounded, one Bounds call each
// (the table's products, bit for bit), and split when the bound decides
// nothing; every floor box it reaches is a leaf. The rectangles are the
// reference's to count.
func referenceWalkStats(s *Surface, qt motion.Tick, rho float64) WalkStats {
	var st WalkStats
	var visit func(series *cheb.Series2D, lv, ix, iy int)
	visit = func(series *cheb.Series2D, lv, ix, iy int) {
		if lv == s.table.depth {
			st.Leaves++
			return
		}
		st.Boxes++
		side := 2 / float64(int(1)<<lv)
		x1, y1 := -1+float64(ix)*side, -1+float64(iy)*side
		if lo, hi := series.Bounds(x1, y1, x1+side, y1+side); hi < rho || lo >= rho {
			return
		}
		for c := 0; c < 4; c++ {
			visit(series, lv+1, 2*ix+c&1, 2*iy+c>>1)
		}
	}
	for _, series := range s.slot(qt) {
		visit(series, 0, 0, 0)
	}
	return st
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
// replaced — which bounds every box, floor boxes too — the same rectangles in
// the same order (hence, coalesced, the same answer), over grids, degrees and
// resolution floors whose leaf level falls on and off a power of two — depth 0
// (each cell one floor box), depth 1 (the root's children are) and deeper — for
// thresholds from 0 (everything dense at the root) to above the surface's
// maximum (nothing). The walk's counts: every floor box is a child of a
// bounded box, unless the floor is the root and each cell is one floor box.
func TestDenseRegionMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cases [][2]int // {G, MD}
	for _, g := range []int{1, 3, 10} {
		for _, md := range []int{g - 1, g, 3 * g, 100, 256, 1000} {
			cases = append(cases, [2]int{g, md})
		}
	}
	// MD = 2G is depth 1: the root's children are floor boxes. These cases
	// come last, so the ones above keep their random draws.
	for _, g := range []int{1, 3, 10} {
		cases = append(cases, [2]int{g, 2 * g})
	}
	for _, c := range cases {
		g, md := c[0], c[1]
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
					counted := stats.Boxes >= g*g && stats.Leaves <= 4*stats.Boxes
					if s.table.depth == 0 {
						counted = stats.Boxes == 0 && stats.Leaves == g*g
					}
					if ref := referenceWalkStats(s, qt, rho); stats.Boxes != ref.Boxes || stats.Leaves != ref.Leaves {
						t.Fatalf("rho=%g t=%d: stats %+v, a walk one box at a time counts %+v", rho, qt, stats, ref)
					}
					if stats.Rects != len(want) || !counted {
						t.Fatalf("rho=%g t=%d: stats %+v at depth %d, the reference emits %d rectangles over %d cells", rho, qt, stats, s.table.depth, len(want), g*g)
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

// TestBoundsTableDepth checks the leaf level against the rule the recursion
// applied — halve until the side is within the floor — at the defaults and at
// the edges: a floor of a whole cell decides the root by its centre.
func TestBoundsTableDepth(t *testing.T) {
	for _, c := range []struct{ g, md, depth int }{
		{10, 256, 5}, {10, 320, 5}, {10, 321, 6}, {10, 10, 0}, {10, 11, 1}, {1, 1000, 10}, {1, 1024, 10}, {3, 9, 2},
	} {
		tab := newBoundsTable(Config{G: c.g, MD: c.md, Degree: 5})
		boxes := (1<<(2*c.depth) - 1) / 3
		if tab.depth != c.depth || len(tab.prod) != boxes*21 || len(tab.leafT) != 6<<c.depth {
			t.Errorf("G=%d MD=%d: depth %d with %d products and %d leaf values, want depth %d", c.g, c.md, tab.depth, len(tab.prod), len(tab.leafT), c.depth)
		}
	}
}

// TestBoundsTableProducts recomputes a fresh surface's product table: the
// entries of box (ix, iy) of every level above the floor are cheb.Products
// of AxisBounds of its two sides, on float bits, at the defaults and at other
// degrees and floors. With the cheb kernel pinned to the pre-split BoundsFrom,
// this is what makes the walk's bounds the reference walk's.
func TestBoundsTableProducts(t *testing.T) {
	for _, c := range []struct{ g, md, degree int }{{10, 256, 5}, {3, 100, 2}, {1, 64, 7}, {10, 10, 5}} {
		s, err := New(Config{Area: area1000(), G: c.g, Degree: c.degree, Horizon: 1, L: 80, MD: c.md})
		if err != nil {
			t.Fatal(err)
		}
		tab, n, m := &s.table, c.degree+1, cheb.NumCoeffs(c.degree)
		if len(tab.prod) != boxIndex(tab.depth, 0, 0)*m {
			t.Fatalf("G=%d MD=%d K=%d: %d products for depth %d", c.g, c.md, c.degree, len(tab.prod), tab.depth)
		}
		bx, by, want := make([]cheb.Interval, n), make([]cheb.Interval, n), make([]cheb.Interval, m)
		for lv := 0; lv < tab.depth; lv++ {
			w := 2 / float64(int(1)<<lv)
			for iy := 0; iy < 1<<lv; iy++ {
				for ix := 0; ix < 1<<lv; ix++ {
					x1, y1 := -1+float64(ix)*w, -1+float64(iy)*w
					cheb.AxisBounds(bx, x1, x1+w)
					cheb.AxisBounds(by, y1, y1+w)
					cheb.Products(want, bx, by, c.degree)
					b := boxIndex(lv, ix, iy) * m
					for i, got := range tab.prod[b : b+m] {
						bits := math.Float64bits
						if bits(got.Lo) != bits(want[i].Lo) || bits(got.Hi) != bits(want[i].Hi) {
							t.Fatalf("G=%d MD=%d K=%d: box (%d, %d) of level %d, product %d is %v, recomputed %v", c.g, c.md, c.degree, ix, iy, lv, i, got, want[i])
						}
					}
				}
			}
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

// bandExtents returns the Y extent emit gives each band of s's walk, indexed
// as the walk numbers them: cell row, then level, then lattice row.
func bandExtents(s *Surface) [][2]float64 {
	var ext [][2]float64
	for gy := 0; gy < s.cfg.G; gy++ {
		for lv := 0; lv <= s.table.depth; lv++ {
			side := 2 / float64(int(1)<<lv)
			for iy := 0; iy < 1<<lv; iy++ {
				y1 := -1 + float64(iy)*side
				r := s.denorm(s.cellRect(s.cfg.G-1, gy), 1-side, y1, 1, y1+side)
				ext = append(ext, [2]float64{r.MinY, r.MaxY})
			}
		}
	}
	return ext
}

// TestBandRankOrdersBands checks the rank table against the floats it
// orders: ranks are a permutation of the bands, ascending strictly in
// (MinY, MaxY) — so no two bands share an extent — and every rectangle the
// walk emits has the extent of the band it is filed under.
func TestBandRankOrdersBands(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, g := range []int{1, 3, 10} {
		for _, md := range []int{g, 3 * g, 100, 256, 1000} {
			s, err := New(Config{Area: area1000(), G: g, Degree: 4, Horizon: 0, L: 80, MD: md})
			if err != nil {
				t.Fatal(err)
			}
			ext := bandExtents(s)
			rank := s.table.rank
			if len(rank) != g*(2<<s.table.depth-1) || len(rank) != len(ext) {
				t.Fatalf("G=%d MD=%d: %d ranks for %d bands at depth %d", g, md, len(rank), len(ext), s.table.depth)
			}
			byRank := make([]int, len(rank))
			for i := range byRank {
				byRank[i] = -1
			}
			for b, r := range rank {
				if r < 0 || int(r) >= len(rank) || byRank[r] >= 0 {
					t.Fatalf("G=%d MD=%d: band %d has rank %d, not a permutation", g, md, b, r)
				}
				byRank[r] = b
			}
			for r := 1; r < len(byRank); r++ {
				a, b := ext[byRank[r-1]], ext[byRank[r]]
				if !(a[0] < b[0] || a[0] == b[0] && a[1] < b[1]) {
					t.Fatalf("G=%d MD=%d: rank %d has extent %v, rank %d %v", g, md, r-1, a, r, b)
				}
			}
			s.Advance(0)
			for _, st := range clusterStates(rng, 200, 500, 500, 150) {
				s.Insert(st)
			}
			w := walk{s: s, rho: 0.3 * s.Density(0, geom.Point{X: 500, Y: 500})}
			w.cells(s.slot(0))
			if len(w.out) == 0 || len(w.bands) != len(w.out) {
				t.Fatalf("G=%d MD=%d: %d rectangles filed under %d bands", g, md, len(w.out), len(w.bands))
			}
			for i, r := range w.out {
				if e := ext[w.bands[i]]; r.MinY != e[0] || r.MaxY != e[1] {
					t.Fatalf("G=%d MD=%d: %v filed under band %d, extent %v", g, md, r, w.bands[i], e)
				}
			}
		}
	}
}

// TestDenseRegionWithoutBandRanks: on a plane so far from the origin that
// lattice rows round to the same floats, bands share extents, New keeps no
// rank table, and the union sorts — still the coalesced reference.
func TestDenseRegionWithoutBandRanks(t *testing.T) {
	area := geom.NewRect(0, 1e17, 1000, 1e17+1000)
	s, err := New(Config{Area: area, G: 2, Degree: 3, Horizon: 0, L: 80, MD: 128})
	if err != nil {
		t.Fatal(err)
	}
	if s.table.rank != nil {
		t.Fatal("bands of 1000/2/64 units at y = 1e17 (16-unit floats) kept a rank table")
	}
	s.Advance(0)
	for _, st := range clusterStates(rand.New(rand.NewSource(7)), 200, 500, 1e17+500, 150) {
		s.Insert(st)
	}
	peak := s.Density(0, geom.Point{X: 500, Y: 1e17 + 500})
	for _, rho := range []float64{0, 0.3 * peak, 0.8 * peak} {
		want := referenceDenseRegion(s, 0, rho)
		got, err := s.DenseRegion(0, rho)
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		if want = geom.CoalesceInPlace(want); n == 0 || !sameRects(got, want) {
			t.Fatalf("rho=%g: %d rectangles, the coalesced reference %d of %d", rho, len(got), len(want), n)
		}
	}
}

// TestDenseRegionWithoutColumnRanks: where lattice columns do not name one
// X float each in order — on a plane so far from the origin that lattice
// lines round to the same floats, or one where a polynomial cell's right
// edge and the next cell's left edge round to two floats — New keeps no
// column order and the union sorts pass 2: still the coalesced reference.
// The bands keep their ranks: pass 1 still counts.
func TestDenseRegionWithoutColumnRanks(t *testing.T) {
	for _, c := range []struct {
		name string
		area geom.Rect
		g    int
	}{
		{"x=1e17", geom.NewRect(1e17, 0, 1e17+1000, 1000), 2},
		{"cell edge", geom.NewRect(-28.15190346333655, 0, -28.15190346333655+926.1635847420617, 1000), 7},
	} {
		s, err := New(Config{Area: c.area, G: c.g, Degree: 3, Horizon: 0, L: 80, MD: 128})
		if err != nil {
			t.Fatal(err)
		}
		if s.table.columns != 0 || s.table.rank == nil {
			t.Fatalf("%s: column count %d, band ranks %v", c.name, s.table.columns, s.table.rank != nil)
		}
		s.Advance(0)
		mid := geom.Point{X: c.area.MinX + 500, Y: 500}
		for _, st := range clusterStates(rand.New(rand.NewSource(7)), 200, mid.X, mid.Y, 150) {
			s.Insert(st)
		}
		peak := s.Density(0, mid)
		for _, rho := range []float64{0, 0.3 * peak, 0.8 * peak} {
			want := referenceDenseRegion(s, 0, rho)
			got, err := s.DenseRegion(0, rho)
			if err != nil {
				t.Fatal(err)
			}
			n := len(want)
			if want = geom.CoalesceInPlace(want); n == 0 || !sameRects(got, want) {
				t.Fatalf("%s, rho=%g: %d rectangles, the coalesced reference %d of %d", c.name, rho, len(got), len(want), n)
			}
		}
	}
}

// TestColumnsNameEmittedX checks the columns the walk files each rectangle
// under against the floats they stand for: column k's float ascends
// strictly with k, and every rectangle's MinX and MaxX are its columns'
// floats — so counting by column is sorting by X.
func TestColumnsNameEmittedX(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, c := range []struct {
		area   geom.Rect
		g, md  int
		degree int
	}{
		{area1000(), 10, 256, 5}, {area1000(), 3, 100, 2}, {area1000(), 1, 1000, 4},
		{geom.NewRect(-37.5, -37.5, 962.5, 962.5), 7, 90, 3},
	} {
		s, err := New(Config{Area: c.area, G: c.g, Degree: c.degree, Horizon: 0, L: 80, MD: c.md})
		if err != nil {
			t.Fatal(err)
		}
		d := s.table.depth
		if s.table.columns != c.g<<d+1 {
			t.Fatalf("G=%d MD=%d: column count %d at depth %d", c.g, c.md, s.table.columns, d)
		}
		xs := make([]float64, s.table.columns)
		for k := range xs {
			gx, j := min(k>>d, c.g-1), k-min(k>>d, c.g-1)<<d
			xs[k] = s.denorm(s.cellRect(gx, 0), -1+float64(j)*2/float64(int(1)<<d), -1, 1, 1).MinX
			if k > 0 && !(xs[k] > xs[k-1]) {
				t.Fatalf("G=%d MD=%d: column %d is %v, column %d %v", c.g, c.md, k, xs[k], k-1, xs[k-1])
			}
		}
		s.Advance(0)
		mid := geom.Point{X: (c.area.MinX + c.area.MaxX) / 2, Y: (c.area.MinY + c.area.MaxY) / 2}
		for _, st := range clusterStates(rng, 200, mid.X, mid.Y, 150) {
			s.Insert(st)
		}
		w := walk{s: s, rho: 0.3 * s.Density(0, mid)}
		w.cells(s.slot(0))
		if len(w.out) == 0 || len(w.cols) != len(w.out) {
			t.Fatalf("G=%d MD=%d: %d rectangles named by %d column spans", c.g, c.md, len(w.out), len(w.cols))
		}
		for i, r := range w.out {
			if col := w.cols[i]; r.MinX != xs[col.Min] || r.MaxX != xs[col.Max] {
				t.Fatalf("G=%d MD=%d: %v named by columns %v, floats %v, %v", c.g, c.md, r, col, xs[col.Min], xs[col.Max])
			}
		}
	}
}

// TestPooledExtractionAcrossSurfaces: one extraction serves, in turn, a
// surface of degree 3 at floor 128 and one of degree 5 at floor 256 — the
// floor-row memo regrown, then reused over stale rows of the other size —
// and every answer is the coalesced reference walk's, rectangle for
// rectangle.
func TestPooledExtractionAcrossSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var surfaces [2]*Surface
	for i, c := range []struct{ degree, md int }{{3, 128}, {5, 256}} {
		s, err := New(Config{Area: area1000(), G: 10, Degree: c.degree, Horizon: 0, L: 60, MD: c.md})
		if err != nil {
			t.Fatal(err)
		}
		if s.table.rank == nil || s.table.columns == 0 {
			t.Fatalf("degree %d floor %d: no band ranks or column order", c.degree, c.md)
		}
		s.Advance(0)
		for _, st := range clusterStates(rng, 400, 300+400*rng.Float64(), 300+400*rng.Float64(), 120) {
			s.Insert(st)
		}
		surfaces[i] = s
	}
	x := new(extraction)
	for round := 0; round < 3; round++ {
		for _, s := range surfaces {
			peak := s.Density(0, geom.Point{X: 500, Y: 500})
			for _, frac := range []float64{0.1, 0.4, 0.9} {
				want := referenceDenseRegion(s, 0, frac*peak)
				n := len(want)
				got, _ := x.dense(s, s.slot(0), frac*peak)
				if want = geom.CoalesceInPlace(want); !sameRects(got, want) {
					t.Fatalf("round %d, degree %d: %d rectangles, the coalesced reference %d of %d", round, s.cfg.Degree, len(got), len(want), n)
				}
			}
		}
	}
}
