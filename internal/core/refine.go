package core

import (
	"math"
	"sort"
	"sync"

	"pdr/internal/dh"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/sweep"
	"pdr/internal/telemetry"
	"pdr/internal/tprtree"
)

// frScratch is one FR snapshot's refinement working set (snapshotFRLocked):
//
//   - the candidate cells in row order, where each row run starts in them,
//     and each run's grown window;
//   - the histogram rows that hold runs, and firstRow, which finds them from
//     a Y coordinate without a search;
//   - the gather: what each subtree's search found, then the same objects
//     binned by the histogram row that holds them, each bin in X order;
//   - the per-run result slots the refinement fan-out writes and the merge
//     loop drains.
//
// The slices are request-scoped (no Result retains them), so they pool across
// queries; release hands the point buffers back to pointBufs and clears every
// reference, so a pooled scratch never pins another query's answer.
type frScratch struct {
	cells   []geom.Rect
	starts  []int
	windows []geom.Rect
	rows    []frRow

	// firstRow[j] is the first of rows at or above histogram row j.
	// rowReaching enters it reach+1 histogram rows below a Y coordinate's
	// own row: no window of a row further down reaches that far up.
	firstRow    []int
	minY, cellH float64
	reach       int

	subtrees []tprtree.Subtree
	found    []*[]geom.Point // per subtree: the objects its search found
	binAt    []int           // histogram row j's objects are binned[binAt[j]:binAt[j+1]]
	binned   []geom.Point

	parts []geom.Region
}

// frRow is a histogram row j that holds runs: the closed Y extent all its
// runs' windows share, and its runs [first, end).
type frRow struct {
	lo, hi     float64
	j          int
	first, end int
}

var frScratches = sync.Pool{New: func() any { return new(frScratch) }}

// release returns the scratch and its point buffers to their pools.
func (sc *frScratch) release() {
	for _, pb := range sc.found {
		if pb != nil {
			pointBufs.Put(pb)
		}
	}
	clear(sc.found)
	clear(sc.parts)
	sc.found = sc.found[:0]
	frScratches.Put(sc)
}

// plan lays out a snapshot's refinement from its candidate cells (in
// CandidatesByRow order): the row runs, each run's grown window, and the rows
// that hold runs with their shared window Y extent.
func (sc *frScratch) plan(cands []dh.CellIndex, h *dh.Histogram, l float64) {
	cells, starts := sc.cells[:0], sc.starts[:0]
	for k, c := range cands {
		cell := h.CellRect(c.I, c.J)
		if k == 0 || c.J != cands[k-1].J || cell.MinX-cells[k-1].MaxX > l {
			starts = append(starts, k)
		}
		cells = append(cells, cell)
	}
	windows, rows := sc.windows[:0], sc.rows[:0]
	for ri, start := range starts {
		end := len(cells)
		if ri+1 < len(starts) {
			end = starts[ri+1]
		}
		first, last := cells[start], cells[end-1]
		w := geom.NewRect(first.MinX, first.MinY, last.MaxX, first.MaxY).Grow(l / 2)
		if j := cands[start].J; ri == 0 || j != rows[len(rows)-1].j {
			rows = append(rows, frRow{lo: w.MinY, hi: w.MaxY, j: j, first: ri})
		}
		rows[len(rows)-1].end = ri + 1
		windows = append(windows, w)
	}
	sc.cells, sc.starts = cells, append(starts, len(cells))
	sc.windows, sc.rows = windows, rows
	m := h.M()
	firstRow := grow(sc.firstRow, m)
	for j, k := 0, 0; j < m; j++ {
		for k < len(rows) && rows[k].j < j {
			k++
		}
		firstRow[j] = k
	}
	sc.firstRow = firstRow
	origin := h.CellRect(0, 0)
	sc.minY, sc.cellH = origin.MinY, origin.Height()
	sc.reach = int(math.Ceil(l / 2 / sc.cellH))
}

// rowReaching returns the first of rows whose window's top is at or above y.
func (sc *frScratch) rowReaching(y float64) int {
	k := len(sc.rows)
	// The histogram row reach+1 below y's own: no window of a row below it
	// reaches y (its top is at least a cell below y, far beyond rounding).
	if f := (y-sc.minY)/sc.cellH - float64(sc.reach+1); !(f > 0) {
		k = sc.firstRow[0]
	} else if f < float64(len(sc.firstRow)) {
		k = sc.firstRow[int(f)]
	}
	for k < len(sc.rows) && sc.rows[k].hi < y {
		k++
	}
	return k
}

// touches reports whether the closed rectangle b meets some run's window:
// the index descent's pruning test, and its test for each object. Row
// windows ascend in both Y edges, and the windows of one row ascend and are
// disjoint in X.
func (sc *frScratch) touches(b geom.Rect) bool {
	for k := sc.rowReaching(b.MinY); k < len(sc.rows) && sc.rows[k].lo <= b.MaxY; k++ {
		row := &sc.rows[k]
		for _, w := range sc.windows[row.first:row.end] {
			if w.MaxX >= b.MinX {
				if w.MinX <= b.MaxX {
					return true
				}
				break
			}
		}
	}
	return false
}

// binOf returns the histogram row holding y, clamped to the grid. It is
// monotone in y, so the objects of a Y range lie in the bins of its ends'
// rows and the rows between.
func (sc *frScratch) binOf(y float64) int {
	j := int((y - sc.minY) / sc.cellH)
	return max(0, min(j, len(sc.binAt)-2))
}

// gather fetches the objects of every run's window at qt with one index
// descent, split at the root's children over the worker pool — every page is
// read once, every object retrieved once — and bins them by histogram row,
// each bin put in X order on the pool. It returns how many objects it
// fetched.
func (sc *frScratch) gather(s *Server, qt motion.Tick) int {
	sc.subtrees = s.index.Split(sc.subtrees[:0], qt, sc.touches)
	sc.found = sc.found[:0]
	for range sc.subtrees {
		sc.found = append(sc.found, nil)
	}
	s.par.ForEach(len(sc.subtrees), func(i int) {
		pb := pointBufs.Get().(*[]geom.Point)
		found := (*pb)[:0]
		s.index.SearchSubtree(sc.subtrees[i], qt, sc.touches, func(m motion.State) {
			p := m.PositionAt(qt)
			if s.cfg.Area.Contains(p) && sc.touches(geom.NewRect(p.X, p.Y, p.X, p.Y)) {
				found = append(found, p)
			}
		})
		*pb = found
		sc.found[i] = pb
	})
	// Bin by row: count, lay out, place; the bins' order inside is the sort's.
	m := s.hist.M()
	binAt := grow(sc.binAt, m+1)
	sc.binAt = binAt
	for _, pb := range sc.found {
		for _, p := range *pb {
			binAt[sc.binOf(p.Y)+1]++
		}
	}
	for j := 1; j <= m; j++ {
		binAt[j] += binAt[j-1]
	}
	n := binAt[m]
	if cap(sc.binned) < n {
		sc.binned = make([]geom.Point, n)
	}
	sc.binned = sc.binned[:n] // the placing writes every slot
	for _, pb := range sc.found {
		for _, p := range *pb {
			j := sc.binOf(p.Y)
			sc.binned[binAt[j]] = p
			binAt[j]++
		}
	}
	for j := m; j > 0; j-- {
		binAt[j] = binAt[j-1]
	}
	binAt[0] = 0
	s.par.ForEach(m, func(j int) { sweep.SortByX(sc.binned[binAt[j]:binAt[j+1]]) })
	return n
}

// runPoints appends to dst, in X order, the objects of run ri's closed grown
// window: a k-way merge of the X ranges of the bins its Y range reaches,
// keeping those inside its Y range.
func (sc *frScratch) runPoints(ri int, dst []geom.Point) []geom.Point {
	w := sc.windows[ri]
	var arr [16][]geom.Point // one per bin: 2*reach+2 of them, on the stack
	heads := arr[:0]
	for j := sc.binOf(w.MinY); j <= sc.binOf(w.MaxY); j++ {
		bin := sc.binned[sc.binAt[j]:sc.binAt[j+1]]
		a := sort.Search(len(bin), func(i int) bool { return bin[i].X >= w.MinX })
		b := a + sort.Search(len(bin)-a, func(i int) bool { return bin[a+i].X > w.MaxX })
		if a < b {
			heads = append(heads, bin[a:b])
		}
	}
	for len(heads) > 0 {
		m := 0
		for h := 1; h < len(heads); h++ {
			if heads[h][0].X < heads[m][0].X {
				m = h
			}
		}
		if p := heads[m][0]; p.Y >= w.MinY && p.Y <= w.MaxY {
			dst = append(dst, p)
		}
		if heads[m] = heads[m][1:]; len(heads[m]) == 0 {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	return dst
}

// refineRun sweeps run ri over the objects of its closed grown window.
func (sc *frScratch) refineRun(ri int, q Query, wsp *telemetry.Span) geom.Region {
	pb := pointBufs.Get().(*[]geom.Point)
	points := sc.runPoints(ri, (*pb)[:0])
	cells := sc.cells[sc.starts[ri]:sc.starts[ri+1]]
	wsp.SetAttrInt("cells", int64(len(cells)))
	wsp.SetAttrInt("retrieved", int64(len(points)))
	out, walks := sweep.DenseRectsRowSorted(points, cells, q.Rho, q.L)
	wsp.SetAttrInt("walks", int64(walks))
	*pb = points
	pointBufs.Put(pb)
	return out
}
