package pa

import (
	"cmp"
	"fmt"
	"slices"
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
	// prod holds cheb.Products of box (ix, iy) of level lv < depth — the
	// hulls of bx[i] * by[j] over its two sides, which depend on none of
	// the cell, the slot, the threshold or the data — in the
	// NumCoeffs(Degree) entries from boxIndex(lv, ix, iy)*NumCoeffs(Degree)
	// on. The leaf level has none: its boxes are never bounded.
	prod []cheb.Interval
	// leafT holds cheb.Vals at the centre of leaf interval i in the Degree+1
	// entries from i*(Degree+1) on.
	leafT []float64
	// rank orders the walk's bands (see bandRanks); nil when two bands share
	// their Y extent, and the union then sorts.
	rank []int32
}

// boxIndex numbers box (ix, iy) of level lv: the (4^lv-1)/3 boxes of the
// levels above it, then row-major within its 2^lv x 2^lv lattice.
func boxIndex(lv, ix, iy int) int {
	return (1<<(2*lv)-1)/3 + iy<<lv + ix
}

func newBoundsTable(cfg Config) boundsTable {
	// Resolution floor in normalized units: a polynomial cell spans 2.0 and
	// Area/MD world units correspond to 2*G/MD.
	floor := 2 * float64(cfg.G) / float64(cfg.MD)
	var t boundsTable
	for w := 2.0; w > floor; w /= 2 {
		t.depth++
	}
	n, m := cfg.Degree+1, cheb.NumCoeffs(cfg.Degree)
	// iv holds cheb.AxisBounds of interval i of level lv < depth in the n
	// entries from (2^lv-1+i)*n on.
	iv := make([]cheb.Interval, (1<<t.depth-1)*n)
	t.prod = make([]cheb.Interval, boxIndex(t.depth, 0, 0)*m)
	t.leafT = make([]float64, n<<t.depth)
	for lv := 0; lv <= t.depth; lv++ {
		w := 2 / float64(int(1)<<lv)
		for i := 0; i < 1<<lv; i++ {
			z, row := -1+float64(i)*w, (1<<lv-1+i)*n
			if lv < t.depth {
				cheb.AxisBounds(iv[row:row+n], z, z+w)
			} else {
				cheb.Vals(t.leafT[i*n:(i+1)*n], z+w/2)
			}
		}
	}
	for lv := 0; lv < t.depth; lv++ {
		for iy := 0; iy < 1<<lv; iy++ {
			ry := (1<<lv - 1 + iy) * n
			for ix := 0; ix < 1<<lv; ix++ {
				rx, b := (1<<lv-1+ix)*n, boxIndex(lv, ix, iy)*m
				cheb.Products(t.prod[b:b+m], iv[rx:rx+n], iv[ry:ry+n], cfg.Degree)
			}
		}
	}
	return t
}

// bandRanks numbers the bands of the walk's output in the order of their Y
// extents. A band is the boxes of one polynomial-cell row gy, level lv and
// lattice row iy: they share the (MinY, MaxY) floats denorm gives them, and
// the walk emits each band's boxes in ascending MinX (cells left to right,
// quadtree children left before right). Band gy*(2^(depth+1)-1) + 2^lv-1+iy
// gets the position of its extent in ascending (MinY, MaxY) order, so
// ordering the emitted boxes by rank, stably, is the union's pass 1 sort.
// It returns nil when two bands share an extent — only on a plane so far
// from the origin that lattice rows round together.
func (s *Surface) bandRanks() []int32 {
	type band struct {
		minY, maxY float64
		id         int32
	}
	var bands []band
	for gy := 0; gy < s.cfg.G; gy++ {
		cell := s.cellRect(0, gy)
		for lv := 0; lv <= s.table.depth; lv++ {
			side := 2 / float64(int(1)<<lv)
			for iy := 0; iy < 1<<lv; iy++ {
				// The floats emit computes for every box of the band.
				y1 := -1 + float64(iy)*side
				r := s.denorm(cell, -1, y1, 1, y1+side)
				bands = append(bands, band{r.MinY, r.MaxY, int32(len(bands))})
			}
		}
	}
	byExtent := func(a, b band) int {
		if c := cmp.Compare(a.minY, b.minY); c != 0 {
			return c
		}
		return cmp.Compare(a.maxY, b.maxY)
	}
	slices.SortFunc(bands, byExtent)
	rank := make([]int32, len(bands))
	for i, b := range bands {
		if i > 0 && byExtent(bands[i-1], b) == 0 {
			return nil
		}
		rank[b.id] = int32(i)
	}
	return rank
}

// WalkStats counts the work of one branch-and-bound extraction.
type WalkStats struct {
	Boxes  int // boxes above the floor, whose bounds were evaluated
	Leaves int // floor-level boxes, decided by evaluating their centre
	Rects  int // rectangles emitted, before coalescing
}

// DenseRegion returns the region where the approximated density at
// timestamp qt is at least rho, extracted per polynomial cell by
// branch-and-bound over the Chebyshev interval bounds (paper Sec. 6.3):
// boxes whose lower bound reaches rho are wholly dense, boxes whose upper
// bound misses rho are discarded, and boxes at the MD resolution floor are
// decided by their center density alone.
func (s *Surface) DenseRegion(qt motion.Tick, rho float64) (geom.Region, error) {
	region, _, err := s.DenseRegionStats(qt, rho)
	return region, err
}

// DenseRegionStats is DenseRegion that also reports what the walk did.
func (s *Surface) DenseRegionStats(qt motion.Tick, rho float64) (geom.Region, WalkStats, error) {
	if qt < s.base || qt > s.base+s.cfg.Horizon {
		return nil, WalkStats{}, fmt.Errorf("pa: timestamp %d outside window [%d, %d]", qt, s.base, s.base+s.cfg.Horizon)
	}
	if rho < 0 {
		return nil, WalkStats{}, fmt.Errorf("pa: negative threshold %g", rho)
	}
	x := extractions.Get().(*extraction)
	w := walk{s: s, rho: rho, out: x.raw[:0], bands: x.bands[:0]}
	w.cells(s.slot(qt))
	w.stats.Rects = len(w.out)
	x.raw, x.bands = w.out, w.bands
	// The buffers are this call's alone, so the union coalesces in place;
	// the caller owns a copy sized to the answer (nil when nothing is dense).
	region := append(geom.Region(nil), x.union(s.table.rank)...)
	extractions.Put(x)
	return region, w.stats, nil
}

// extraction is the working memory of one DenseRegion call, pooled: at a low
// threshold the walk emits tens of thousands of rectangles that coalesce to
// a few thousand, and regrowing these from nil per query was most of a PA
// query's garbage.
type extraction struct {
	raw   geom.Region // the walk's output, in emission order
	bands []int32     // the band of each raw rectangle
	next  []int       // the counting sort's cursor per rank
}

var extractions = sync.Pool{New: func() any { return new(extraction) }}

// union coalesces the walk's output, consuming raw and bands. A counting
// sort by band rank — stable, so each band keeps its ascending MinX — puts
// the rectangles in pass 1's order, in place, and geom.CoalesceBandOrdered
// merges them from there: the same answer as geom.CoalesceInPlace, without
// its comparison sort. Without a rank table the union sorts. The result
// aliases raw.
func (x *extraction) union(rank []int32) geom.Region {
	raw, bands := x.raw, x.bands
	if rank == nil {
		return geom.CoalesceInPlace(raw)
	}
	next := slices.Grow(x.next[:0], len(rank)+1)[:len(rank)+1]
	x.next = next
	clear(next)
	for _, b := range bands {
		next[rank[b]+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	// bands[i] becomes raw[i]'s position in pass 1's order; each swap then
	// moves one rectangle to its position for good.
	for i, b := range bands {
		k := rank[b]
		bands[i] = int32(next[k])
		next[k]++
	}
	for i := range raw {
		for j := int(bands[i]); j != i; j = int(bands[i]) {
			raw[i], raw[j] = raw[j], raw[i]
			bands[i], bands[j] = bands[j], bands[i]
		}
	}
	return geom.CoalesceBandOrdered(raw)
}

// walk is the state of one extraction: the polynomial cell being classified
// and the answer so far.
type walk struct {
	s      *Surface
	series *cheb.Series2D
	cell   geom.Rect
	row    int // the first band of the current cell's row
	rho    float64
	out    geom.Region
	bands  []int32 // out[i]'s band
	stats  WalkStats
}

// cells classifies every polynomial cell of one timestamp's slot, in row order.
func (w *walk) cells(slot []*cheb.Series2D) {
	g := w.s.cfg.G
	for c, series := range slot {
		w.cell, w.series = w.s.cellRect(c%g, c/g), series
		w.row = c / g * (2<<w.s.table.depth - 1)
		w.box(0, 0, 0)
	}
}

// box classifies box (ix, iy) of the 2^level x 2^level lattice over the
// current cell's normalized square, bounding it from the table's interval
// products: one pass over the coefficients, no trigonometry, no scratch to
// fetch, no allocation but the buffer's growth.
// At the floor the centre decides without a bound: in exact arithmetic a
// bound that settled the box would agree with the centre.
func (w *walk) box(level, ix, iy int) {
	t, n := &w.s.table, w.s.cfg.Degree+1
	if level == t.depth {
		w.stats.Leaves++
		if w.series.EvalFrom(t.leafT[ix*n:ix*n+n], t.leafT[iy*n:iy*n+n]) >= w.rho {
			w.emit(level, ix, iy)
		}
		return
	}
	w.stats.Boxes++
	m := len(w.series.A)
	b := boxIndex(level, ix, iy) * m
	lo, hi := w.series.BoundsOf(t.prod[b : b+m])
	if hi < w.rho {
		return
	}
	if lo >= w.rho {
		w.emit(level, ix, iy)
		return
	}
	w.box(level+1, 2*ix, 2*iy)
	w.box(level+1, 2*ix+1, 2*iy)
	w.box(level+1, 2*ix, 2*iy+1)
	w.box(level+1, 2*ix+1, 2*iy+1)
}

// emit adds lattice box (ix, iy) of level to the answer, with its band.
func (w *walk) emit(level, ix, iy int) {
	side := 2 / float64(int(1)<<level)
	x1, y1 := -1+float64(ix)*side, -1+float64(iy)*side
	if r := w.s.denorm(w.cell, x1, y1, x1+side, y1+side); !r.IsEmpty() {
		w.out = append(w.out, r)
		w.bands = append(w.bands, int32(w.row+1<<level-1+iy))
	}
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
