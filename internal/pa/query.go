package pa

import (
	"fmt"
	"sync"

	"pdr/internal/cheb"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// boundsTable is what branch-and-bound needs of the Chebyshev basis, computed
// once per surface: every polynomial cell of every query halves the same
// normalized square [-1, 1]^2, so a box's sides are two of the same dyadic
// intervals — 2^level at each level, down to the first level whose boxes are
// within the MD resolution floor, under 4*MD/G in all. Dyadic midpoints are
// exact, so the table holds the bounds of exactly the floats halving
// produces. Immutable after New.
type boundsTable struct {
	depth int // the leaf level: its boxes are decided by their centre
	// iv holds cheb.AxisBounds of interval i of level lv in the Degree+1
	// entries from (2^lv-1+i)*(Degree+1) on.
	iv []cheb.Interval
	// leafT holds cheb.Vals at the centre of leaf interval i in the Degree+1
	// entries from i*(Degree+1) on.
	leafT []float64
}

func newBoundsTable(cfg Config) boundsTable {
	// Resolution floor in normalized units: a polynomial cell spans 2.0 and
	// Area/MD world units correspond to 2*G/MD.
	floor := 2 * float64(cfg.G) / float64(cfg.MD)
	var t boundsTable
	for w := 2.0; w > floor; w /= 2 {
		t.depth++
	}
	n := cfg.Degree + 1
	t.iv = make([]cheb.Interval, (2<<t.depth-1)*n)
	t.leafT = make([]float64, n<<t.depth)
	for lv := 0; lv <= t.depth; lv++ {
		w := 2 / float64(int(1)<<lv)
		for i := 0; i < 1<<lv; i++ {
			z, row := -1+float64(i)*w, (1<<lv-1+i)*n
			cheb.AxisBounds(t.iv[row:row+n], z, z+w)
			if lv == t.depth {
				cheb.Vals(t.leafT[i*n:(i+1)*n], z+w/2)
			}
		}
	}
	return t
}

// WalkStats counts the work of one branch-and-bound extraction.
type WalkStats struct {
	Boxes  int // boxes whose bounds were evaluated
	Leaves int // floor-level boxes decided by evaluating their centre
	Rects  int // rectangles emitted, before coalescing
}

// DenseRegion returns the region where the approximated density at
// timestamp qt is at least rho, extracted per polynomial cell by
// branch-and-bound over the Chebyshev interval bounds (paper Sec. 6.3):
// boxes whose lower bound reaches rho are wholly dense, boxes whose upper
// bound misses rho are discarded, and boxes smaller than the MD resolution
// floor are decided by their center density.
func (s *Surface) DenseRegion(qt motion.Tick, rho float64) (geom.Region, error) {
	region, _, err := s.DenseRegionStats(qt, rho)
	return region, err
}

// DenseRegionStats is DenseRegion that also reports what the walk did.
//
// pdr:hot — PA query root for the hotpath analyzer family (docs/LINT.md).
func (s *Surface) DenseRegionStats(qt motion.Tick, rho float64) (geom.Region, WalkStats, error) {
	if qt < s.base || qt > s.base+s.cfg.Horizon {
		return nil, WalkStats{}, fmt.Errorf("pa: timestamp %d outside window [%d, %d]", qt, s.base, s.base+s.cfg.Horizon)
	}
	if rho < 0 {
		return nil, WalkStats{}, fmt.Errorf("pa: negative threshold %g", rho)
	}
	buf := rawRegions.Get().(*geom.Region)
	w := walk{s: s, rho: rho, out: (*buf)[:0]}
	w.cells(s.slot(qt))
	w.stats.Rects = len(w.out)
	// The buffer is this call's alone, so the union coalesces in place; the
	// caller owns a copy sized to the answer (nil when nothing is dense).
	region := append(geom.Region(nil), geom.CoalesceInPlace(w.out)...)
	*buf = w.out
	rawRegions.Put(buf)
	return region, w.stats, nil
}

// rawRegions pools the walk's output before the union: at a low threshold it
// is tens of thousands of rectangles that coalesce to a few thousand, and
// regrowing it from nil per query was most of a PA query's garbage.
var rawRegions = sync.Pool{New: func() any { return new(geom.Region) }}

// walk is the state of one extraction: the polynomial cell being classified
// and the answer so far.
type walk struct {
	s      *Surface
	series *cheb.Series2D
	cell   geom.Rect
	rho    float64
	out    geom.Region
	stats  WalkStats
}

// cells classifies every polynomial cell of one timestamp's slot, in row order.
func (w *walk) cells(slot []*cheb.Series2D) {
	g := w.s.cfg.G
	for c, series := range slot {
		w.cell, w.series = w.s.cellRect(c%g, c/g), series
		w.box(0, 0, 0)
	}
}

// box classifies box (ix, iy) of the 2^level x 2^level lattice over the
// current cell's normalized square, reading its bounds from the table: no
// trigonometry, no scratch to fetch, no allocation but the buffer's growth.
func (w *walk) box(level, ix, iy int) {
	t, n := &w.s.table, w.s.cfg.Degree+1
	w.stats.Boxes++
	rx, ry := (1<<level-1+ix)*n, (1<<level-1+iy)*n
	lo, hi := w.series.BoundsFrom(t.iv[rx:rx+n], t.iv[ry:ry+n])
	if hi < w.rho {
		return
	}
	if lo >= w.rho {
		w.emit(level, ix, iy)
		return
	}
	if level == t.depth {
		w.stats.Leaves++
		if w.series.EvalFrom(t.leafT[ix*n:ix*n+n], t.leafT[iy*n:iy*n+n]) >= w.rho {
			w.emit(level, ix, iy)
		}
		return
	}
	w.box(level+1, 2*ix, 2*iy)
	w.box(level+1, 2*ix+1, 2*iy)
	w.box(level+1, 2*ix, 2*iy+1)
	w.box(level+1, 2*ix+1, 2*iy+1)
}

// emit adds lattice box (ix, iy) of level to the answer.
func (w *walk) emit(level, ix, iy int) {
	side := 2 / float64(int(1)<<level)
	x1, y1 := -1+float64(ix)*side, -1+float64(iy)*side
	w.out.Add(w.s.denorm(w.cell, x1, y1, x1+side, y1+side))
}

// denorm maps a normalized box of cell back to world coordinates.
func (s *Surface) denorm(cell geom.Rect, x1, y1, x2, y2 float64) geom.Rect {
	return geom.NewRect(
		cell.MinX+(x1+1)/2*cell.Width(),
		cell.MinY+(y1+1)/2*cell.Height(),
		cell.MinX+(x2+1)/2*cell.Width(),
		cell.MinY+(y2+1)/2*cell.Height(),
	)
}

// DenseRegionGrid evaluates the density at the centers of an MD x MD grid
// and returns the dense cells. This is the paper's "trivial approach"
// (Sec. 6.3) kept as an ablation baseline for the branch-and-bound
// extraction.
func (s *Surface) DenseRegionGrid(qt motion.Tick, rho float64) (geom.Region, error) {
	if qt < s.base || qt > s.base+s.cfg.Horizon {
		return nil, fmt.Errorf("pa: timestamp %d outside window [%d, %d]", qt, s.base, s.base+s.cfg.Horizon)
	}
	md := s.cfg.MD
	w := s.cfg.Area.Width() / float64(md)
	h := s.cfg.Area.Height() / float64(md)
	var out geom.Region
	for j := 0; j < md; j++ {
		for i := 0; i < md; i++ {
			cx := s.cfg.Area.MinX + (float64(i)+0.5)*w
			cy := s.cfg.Area.MinY + (float64(j)+0.5)*h
			if s.Density(qt, geom.Point{X: cx, Y: cy}) >= rho {
				out.Add(geom.NewRect(
					s.cfg.Area.MinX+float64(i)*w,
					s.cfg.Area.MinY+float64(j)*h,
					s.cfg.Area.MinX+float64(i+1)*w,
					s.cfg.Area.MinY+float64(j+1)*h,
				))
			}
		}
	}
	return geom.CoalesceInPlace(out), nil
}
