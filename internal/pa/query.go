package pa

import (
	"cmp"
	"fmt"
	"math"
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
	// columns is the number of lattice columns, G*2^depth+1, when they
	// number the walk's X floats in their order (see columnsOrdered); 0 when
	// they do not, and the union then sorts pass 2.
	columns int
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

// columnsOrdered reports whether the lattice columns of the walk's output
// order its X floats. Column gx*2^depth + j is the x of lattice line j of
// polynomial-cell column gx, so cell gx's last line and cell gx+1's first are
// one column; the walk names each box's MinX and MaxX by their columns. When
// every column is one float and the floats ascend strictly with the column,
// counting by column is sorting by X, and the union orders pass 2 so. It is
// false only on a plane so far from the origin that lattice lines round
// together, or where a cell's right edge and the next cell's left edge round
// apart.
func (s *Surface) columnsOrdered() bool {
	side := 2 / float64(int(1)<<s.table.depth)
	prev := math.Inf(-1)
	for gx := 0; gx < s.cfg.G; gx++ {
		cell := s.cellRect(gx, 0)
		for j := 0; j <= 1<<s.table.depth; j++ {
			// The float emit computes for every box edge on this line.
			x := s.denorm(cell, -1+float64(j)*side, -1, 1, 1).MinX
			if j == 0 && gx > 0 {
				// lint:ignore floateq a column is one float or it names none.
				if x != prev {
					return false
				}
				continue
			}
			if !(x > prev) {
				return false
			}
			prev = x
		}
	}
	return true
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
	region, stats := x.dense(s, s.slot(qt), rho)
	extractions.Put(x)
	return region, stats, nil
}

// dense extracts the region of slot at rho on x's buffers. The buffers are
// this call's alone, so the union coalesces in place; the caller owns a copy
// sized to the answer (nil when nothing is dense).
func (x *extraction) dense(s *Surface, slot []*cheb.Series2D, rho float64) (geom.Region, WalkStats) {
	w := walk{s: s, rho: rho, out: x.raw[:0], bands: x.bands[:0], cols: x.cols[:0], rows: x.rows, filled: x.filled}
	w.cells(slot)
	w.stats.Rects = len(w.out)
	x.raw, x.bands, x.cols, x.rows, x.filled = w.out, w.bands, w.cols, w.rows, w.filled
	return append(geom.Region(nil), x.union(&s.table)...), w.stats
}

// extraction is the working memory of one DenseRegion call, pooled: at a low
// threshold the walk emits tens of thousands of rectangles that coalesce to
// a few thousand, and regrowing these from nil per query was most of a PA
// query's garbage. A pooled extraction serves surfaces of any degree and
// floor; the walk sizes what it uses.
type extraction struct {
	raw    geom.Region       // the walk's output, in emission order
	bands  []int32           // the band of each raw rectangle
	cols   []geom.ColumnSpan // the lattice columns of each one's MinX and MaxX
	next   []int             // the counting sorts' cursor per rank or column
	rows   []float64         // the walk's floor-row memo
	filled []bool            // which memo rows hold the current cell's sums
}

var extractions = sync.Pool{New: func() any { return new(extraction) }}

// union coalesces the walk's output, consuming raw, bands and cols. A
// counting sort by band rank — stable, so each band keeps its ascending
// MinX — puts the rectangles in pass 1's order, in place, and pass 1 merges
// them there, carrying each run's columns. Two stable counting sorts of the
// runs, by MaxX column and then by MinX column, put them in pass 2's order:
// (MinX, MaxX) by the columns, and pass 1's ascending MinY among runs that
// share both. Disjoint rectangles share no (MinX, MaxX, MinY), so this is
// the order geom.CoalesceInPlace sorts them into, and the stacked result is
// its answer rectangle for rectangle. Without a rank table the union sorts
// both passes; without ordered columns, pass 2. The result aliases raw.
func (x *extraction) union(t *boundsTable) geom.Region {
	raw, bands, cols := x.raw, x.bands, x.cols
	if t.rank == nil {
		return geom.CoalesceInPlace(raw)
	}
	next := x.counts(len(t.rank))
	for _, b := range bands {
		next[t.rank[b]+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	// bands[i] becomes raw[i]'s position in pass 1's order; each swap then
	// moves one rectangle to its position for good.
	for i, b := range bands {
		k := t.rank[b]
		bands[i] = int32(next[k])
		next[k]++
	}
	for i := range raw {
		for j := int(bands[i]); j != i; j = int(bands[i]) {
			raw[i], raw[j] = raw[j], raw[i]
			cols[i], cols[j] = cols[j], cols[i]
			bands[i], bands[j] = bands[j], bands[i]
		}
	}
	if t.columns == 0 {
		return geom.CoalesceBandOrdered(raw)
	}
	runs := geom.MergeBandOrdered(raw, cols)
	// order lists the runs by MaxX column, stably.
	order := bands[:len(runs)]
	next = x.counts(t.columns)
	for _, c := range cols[:len(runs)] {
		next[c.Max+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	for i, c := range cols[:len(runs)] {
		order[next[c.Max]] = int32(i)
		next[c.Max]++
	}
	// Then, taking them in that order, by MinX column: the run's position
	// in pass 2's order replaces its MaxX column, which is spent.
	next = x.counts(t.columns)
	for _, c := range cols[:len(runs)] {
		next[c.Min+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	for _, i := range order {
		c := &cols[i]
		c.Max = int32(next[c.Min])
		next[c.Min]++
	}
	for i := range runs {
		for j := int(cols[i].Max); j != i; j = int(cols[i].Max) {
			runs[i], runs[j] = runs[j], runs[i]
			cols[i], cols[j] = cols[j], cols[i]
		}
	}
	return geom.StackColumnOrdered(runs)
}

// counts returns the counting sorts' cursor for n keys, zeroed, with one
// slot more for the prefix sums.
func (x *extraction) counts(n int) []int {
	x.next = slices.Grow(x.next[:0], n+1)[:n+1]
	clear(x.next)
	return x.next
}

// walk is the state of one extraction: the polynomial cell being classified
// and the answer so far.
type walk struct {
	s      *Surface
	series *cheb.Series2D
	cell   geom.Rect
	row    int // the first band of the current cell's row
	col    int // the column of the current cell's left edge
	rho    float64
	out    geom.Region
	bands  []int32           // out[i]'s band
	cols   []geom.ColumnSpan // out[i]'s columns
	// rows[iy*(Degree+1):] memoizes the current cell's RowSums at floor
	// lattice row iy once filled[iy] is set: every floor box of the row
	// shares them, so a floor box costs Degree+1 multiply-adds, not the
	// whole series.
	rows   []float64
	filled []bool
	stats  WalkStats
}

// cells classifies every polynomial cell of one timestamp's slot, in row
// order. The memo is sized for this surface, whatever one it last served.
func (w *walk) cells(slot []*cheb.Series2D) {
	g, d := w.s.cfg.G, w.s.table.depth
	w.rows = slices.Grow(w.rows[:0], (w.s.cfg.Degree+1)<<d)[:(w.s.cfg.Degree+1)<<d]
	w.filled = slices.Grow(w.filled[:0], 1<<d)[:1<<d]
	for c, series := range slot {
		w.cell, w.series = w.s.cellRect(c%g, c/g), series
		w.row = c / g * (2<<d - 1)
		w.col = c % g << d
		clear(w.filled)
		w.root()
	}
}

// root classifies the current cell's whole normalized square: bounded alone
// from the table's interval products, and split into its four children when
// the bound does not decide it. At depth 0 the cell is one floor box,
// decided by its centre.
func (w *walk) root() {
	t := &w.s.table
	if t.depth == 0 {
		w.stats.Leaves++
		if cheb.EvalRows(w.rowSums(0), t.leafT) >= w.rho {
			w.emit(0, 0, 0)
		}
		return
	}
	w.stats.Boxes++
	lo, hi := w.series.BoundsOf(t.prod[:len(w.series.A)])
	if hi < w.rho {
		return
	}
	if lo >= w.rho {
		w.emit(0, 0, 0)
		return
	}
	w.children(0, 0, 0)
}

// children classifies the four children of box (ix, iy) of the 2^level x
// 2^level lattice over the current cell's normalized square, in the order
// (2ix, 2iy), (2ix+1, 2iy), (2ix, 2iy+1), (2ix+1, 2iy+1), each decided and,
// when it splits, walked before the next: the emission order of a walk that
// visits one box at a time. Above the floor one cheb.BoundsOf4 pass bounds
// all four from the table's interval products — no trigonometry, no scratch
// to fetch, no allocation but the buffer's growth. At the floor one
// cheb.EvalRows4 evaluates their four centres from two memoized rows: in
// exact arithmetic a bound that settled a floor box would agree with its
// centre.
func (w *walk) children(level, ix, iy int) {
	t, n := &w.s.table, w.s.cfg.Degree+1
	level, ix, iy = level+1, 2*ix, 2*iy
	if level == t.depth {
		w.stats.Leaves += 4
		v := cheb.EvalRows4(w.rowSums(iy), w.rowSums(iy+1), t.leafT[ix*n:ix*n+n], t.leafT[ix*n+n:ix*n+2*n])
		for c, centre := range v {
			if centre >= w.rho {
				w.emit(level, ix+c&1, iy+c>>1)
			}
		}
		return
	}
	w.stats.Boxes += 4
	m := len(w.series.A)
	b0, b2 := boxIndex(level, ix, iy)*m, boxIndex(level, ix, iy+1)*m
	lo, hi := w.series.BoundsOf4(t.prod[b0:b0+m], t.prod[b0+m:b0+2*m], t.prod[b2:b2+m], t.prod[b2+m:b2+2*m])
	for c := range lo {
		cx, cy := ix+c&1, iy+c>>1
		switch {
		case hi[c] < w.rho:
		case lo[c] >= w.rho:
			w.emit(level, cx, cy)
		default:
			w.children(level, cx, cy)
		}
	}
}

// rowSums returns the current cell's RowSums at floor lattice row iy,
// computing them on the row's first use.
func (w *walk) rowSums(iy int) []float64 {
	n := w.s.cfg.Degree + 1
	rows := w.rows[iy*n : iy*n+n]
	if !w.filled[iy] {
		w.series.RowSums(rows, w.s.table.leafT[iy*n:iy*n+n])
		w.filled[iy] = true
	}
	return rows
}

// emit adds lattice box (ix, iy) of level to the answer, with its band and
// columns.
func (w *walk) emit(level, ix, iy int) {
	side := 2 / float64(int(1)<<level)
	x1, y1 := -1+float64(ix)*side, -1+float64(iy)*side
	if r := w.s.denorm(w.cell, x1, y1, x1+side, y1+side); !r.IsEmpty() {
		w.out = append(w.out, r)
		w.bands = append(w.bands, int32(w.row+1<<level-1+iy))
		sh := w.s.table.depth - level
		w.cols = append(w.cols, geom.ColumnSpan{Min: int32(w.col + ix<<sh), Max: int32(w.col + (ix+1)<<sh)})
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
