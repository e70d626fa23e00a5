// Package pa implements the PDR paper's approximation method (Sec. 6): the
// point-density function over the plane is maintained, for every timestamp
// in the horizon, as a grid of local two-dimensional Chebyshev series. A
// location update adjusts the coefficients of the overlapped surfaces in
// closed form (Lemma 4) — no object data is consulted at query time — and a
// PDR query extracts the region where the approximated density meets the
// threshold by branch-and-bound over the series' interval bounds
// (Sec. 6.3), falling back to center evaluation below the resolution floor.
//
// Unlike the exact filtering-refinement method, the approximation assumes
// the neighborhood edge l is fixed in advance (paper Sec. 6).
//
// # Updates are slot-parallel
//
// The H+1 timestamp slots share no coefficient, so the unit of update work is
// one slot x a whole batch of records: Begin prepares a batch and ApplySlot(k)
// walks it in stream order adding, for slot k's timestamp only, each record's
// box. Any number of goroutines may run different slots of one batch at once;
// every series still receives its increments in stream order, so every
// coefficient is bit-identical to feeding the records one at a time
// (Insert, Delete and Apply are exactly that: the batch of one, run inline).
// Within a slot the Lemma-4 factors of a box are computed once per overlapped
// polynomial-cell column and once per row, not once per cell.
// core.Server.Tick and Load run the slots in the same fan-out as their
// index and histogram work (docs/PERFORMANCE.md, "Write path").
//
// # What is promised about the coefficients
//
// DESIGN.md, "PA tolerance contract": within one binary every route to a
// surface — per record, batched, at any worker count — yields
// the same float bits, and a delete cancels its insert exactly; across
// kernels (a change to cheb.BoxFactors or AddOuter) coefficients are held to
// 1e-12 of the accumulated |value| against the test-only trigonometric
// reference, and the answers — the golden file, pa_err_ratio — do not move.
package pa

import (
	"fmt"
	"math"

	"pdr/internal/cheb"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Config parameterizes a density surface.
type Config struct {
	// Area is the indexed plane.
	Area geom.Rect
	// G is the per-axis count of local polynomials (G x G cells; the paper
	// uses a single global polynomial or 100-1600 local ones).
	G int
	// Degree is the total degree k of each Chebyshev series (paper: 3-5).
	Degree int
	// Horizon is H = U + W in ticks.
	Horizon motion.Tick
	// L is the fixed neighborhood edge length the surface is built for.
	L float64
	// MD is the per-axis resolution floor of query evaluation: recursion
	// stops and evaluates centers once a box is smaller than Area/MD
	// (paper's m_d x m_d evaluation grid).
	MD int
}

// Surface maintains the per-timestamp Chebyshev density approximations.
type Surface struct {
	cfg    Config
	cellW  float64
	cellH  float64
	unit   float64 // one object's density over its l-square: 1/l^2
	base   motion.Tick
	filled bool
	// slots[t mod (H+1)][gy*G+gx] is the series for polynomial cell
	// (gx, gy) at absolute time t.
	slots [][]*cheb.Series2D
	// scratch[k] is slot k's Lemma-4 factor workspace. A slot is written by
	// one goroutine at a time (ApplySlot), so its scratch needs neither a
	// lock nor a pool.
	scratch []factors
	// table serves DenseRegion's branch-and-bound its Chebyshev bounds.
	table boundsTable
}

// factors holds the Lemma-4 factor vectors of one box along each axis:
// Degree+1 values per overlapped polynomial-cell column (x) and row (y).
// Sized for a box spanning the whole grid.
type factors struct {
	x, y []float64
}

// New creates an all-zero surface.
func New(cfg Config) (*Surface, error) {
	if cfg.Area.IsEmpty() {
		return nil, fmt.Errorf("pa: empty area")
	}
	if cfg.G < 1 {
		return nil, fmt.Errorf("pa: G must be >= 1, got %d", cfg.G)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("pa: degree must be >= 1, got %d", cfg.Degree)
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("pa: negative horizon %d", cfg.Horizon)
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("pa: L must be positive, got %g", cfg.L)
	}
	if cfg.MD < cfg.G {
		cfg.MD = cfg.G * 8 // sensible default: 8x8 floor per polynomial cell
	}
	s := &Surface{
		cfg:     cfg,
		cellW:   cfg.Area.Width() / float64(cfg.G),
		cellH:   cfg.Area.Height() / float64(cfg.G),
		unit:    1 / (cfg.L * cfg.L),
		slots:   make([][]*cheb.Series2D, cfg.Horizon+1),
		scratch: make([]factors, cfg.Horizon+1),
		table:   newBoundsTable(cfg),
	}
	s.table.rank = s.bandRanks()
	if s.columnsOrdered() {
		s.table.columns = cfg.G<<s.table.depth + 1
	}
	for t := range s.slots {
		n := cfg.G * (cfg.Degree + 1)
		s.scratch[t] = factors{x: make([]float64, n), y: make([]float64, n)}
		s.slots[t] = make([]*cheb.Series2D, cfg.G*cfg.G)
		for c := range s.slots[t] {
			series, err := cheb.NewSeries2D(cfg.Degree)
			if err != nil {
				return nil, err
			}
			s.slots[t][c] = series
		}
	}
	return s, nil
}

// L returns the fixed neighborhood edge the surface approximates.
func (s *Surface) L() float64 { return s.cfg.L }

// Horizon returns H.
func (s *Surface) Horizon() motion.Tick { return s.cfg.Horizon }

// Now returns the first maintained timestamp.
func (s *Surface) Now() motion.Tick { return s.base }

// MemoryBytes returns the coefficient storage footprint: the paper's
// H * g^2 * (k+1)(k+2)/2 doubles. It excludes the branch-and-bound table,
// which is constant in H and the data (the interval products of every box
// above the floor: 114,576 B at the defaults).
func (s *Surface) MemoryBytes() int {
	return len(s.slots) * s.cfg.G * s.cfg.G * cheb.NumCoeffs(s.cfg.Degree) * 8
}

func (s *Surface) slot(t motion.Tick) []*cheb.Series2D {
	n := motion.Tick(len(s.slots))
	return s.slots[((t%n)+n)%n]
}

// Advance moves the maintained window to [now, now+H], zeroing surfaces
// that rotate in. It never moves backwards.
func (s *Surface) Advance(now motion.Tick) {
	if !s.filled {
		s.base = now
		s.filled = true
		return
	}
	if now <= s.base {
		return
	}
	from, to := s.base+s.cfg.Horizon+1, now+s.cfg.Horizon
	if to-from >= motion.Tick(len(s.slots)) {
		from = to - motion.Tick(len(s.slots)) + 1
	}
	for t := from; t <= to; t++ {
		for _, series := range s.slot(t) {
			series.Reset()
		}
	}
	s.base = now
}

// cellRect returns the world rectangle of polynomial cell (gx, gy).
func (s *Surface) cellRect(gx, gy int) geom.Rect {
	return geom.NewRect(
		s.cfg.Area.MinX+float64(gx)*s.cellW,
		s.cfg.Area.MinY+float64(gy)*s.cellH,
		s.cfg.Area.MinX+float64(gx+1)*s.cellW,
		s.cfg.Area.MinY+float64(gy+1)*s.cellH,
	)
}

// Cell returns the series of polynomial cell (gx, gy) at maintained timestamp
// t and the cell's world rectangle, for read-only use: what a caller needs to
// evaluate the surface by a method of its own.
func (s *Surface) Cell(t motion.Tick, gx, gy int) (*cheb.Series2D, geom.Rect) {
	return s.slot(t)[gy*s.cfg.G+gx], s.cellRect(gx, gy)
}

// cellOf returns the polynomial cell containing p, clamped to the grid.
func (s *Surface) cellOf(p geom.Point) (int, int) {
	gx := int((p.X - s.cfg.Area.MinX) / s.cellW)
	gy := int((p.Y - s.cfg.Area.MinY) / s.cellH)
	return clampInt(gx, 0, s.cfg.G-1), clampInt(gy, 0, s.cfg.G-1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Insert adds the movement's density contribution (1/l^2 over the l-square
// around each predicted position) to every maintained timestamp in
// [s.Ref, s.Ref+H].
func (s *Surface) Insert(st motion.State) {
	s.Apply(motion.NewInsert(st))
}

// Delete removes a stale movement's remaining contribution from [at,
// st.Ref+H].
func (s *Surface) Delete(st motion.State, at motion.Tick) {
	s.Apply(motion.NewDelete(st, at))
}

// Apply dispatches an update record: the batch of one, its slots run inline.
func (s *Surface) Apply(u motion.Update) {
	one := [1]motion.Update{u}
	for k, n := 0, s.Begin(one[:]); k < n; k++ {
		s.ApplySlot(k, one[:])
	}
}

// Begin prepares the surface for a batch of update records and returns the
// number of independent work items the batch splits into: one per timestamp
// slot, H+1. The caller then runs ApplySlot(k, updates) for every k in
// [0, H+1), in any order and on any goroutines, each k once. A surface that
// has never been advanced or inserted into is anchored at the reference time
// of the batch's first insert.
func (s *Surface) Begin(updates []motion.Update) int {
	if !s.filled {
		for i := range updates {
			if updates[i].Kind == motion.Insert {
				s.base, s.filled = updates[i].State.Ref, true
				break
			}
		}
	}
	return len(s.slots)
}

// ApplySlot is work item k of the batch Begin prepared: it applies updates,
// in stream order, to timestamp slot k alone — an insert adds the movement's
// box from its reference time on, a delete removes the stale movement's from
// u.At on, both up to Ref+H. Calls for different k touch disjoint memory and
// may run concurrently; nothing else may use the surface meanwhile.
//
// Its loop runs once per timestamp and movement update.
func (s *Surface) ApplySlot(k int, updates []motion.Update) {
	// The one maintained timestamp that lives in slot k.
	n := motion.Tick(len(s.slots))
	t := s.base + ((motion.Tick(k)-s.base)%n+n)%n
	for i := range updates {
		u := &updates[i]
		var from motion.Tick
		var value float64
		switch u.Kind {
		case motion.Insert:
			from, value = u.State.Ref, s.unit
		case motion.Delete:
			from, value = u.At, -s.unit
		default:
			continue
		}
		if t < from || t > u.State.Ref+s.cfg.Horizon {
			continue
		}
		p := u.State.PositionAt(t)
		// Objects predicted outside the monitored area do not exist at that
		// timestamp (same contract as the density histogram, so all query
		// methods see identical populations).
		if !s.cfg.Area.Contains(p) {
			continue
		}
		s.addBox(k, geom.RectFromCenter(p, s.cfg.L), value)
	}
}

// addBox distributes value over the box into every overlapped polynomial
// cell's series of slot k, in the cell's normalized [-1, 1]^2 coordinates.
// The Lemma-4 increment of a cell is the outer product of an x factor vector
// that depends only on the cell's column and a y vector that depends only on
// its row, so each is computed once per column and row.
func (s *Surface) addBox(k int, box geom.Rect, value float64) {
	gx1, gy1 := s.cellOf(geom.Point{X: box.MinX, Y: box.MinY})
	gx2, gy2 := s.cellOf(geom.Point{X: box.MaxX, Y: box.MaxY})
	f := &s.scratch[k]
	gx1, gx2 = s.axisFactors(f.x, gx1, gx2, s.cfg.Area.MinX, s.cellW, box.MinX, box.MaxX)
	gy1, gy2 = s.axisFactors(f.y, gy1, gy2, s.cfg.Area.MinY, s.cellH, box.MinY, box.MaxY)
	slot, n := s.slots[k], s.cfg.Degree+1
	for gy := gy1; gy <= gy2; gy++ {
		ay := f.y[(gy-gy1)*n : (gy-gy1+1)*n]
		for gx := gx1; gx <= gx2; gx++ {
			slot[gy*s.cfg.G+gx].AddOuter(f.x[(gx-gx1)*n:(gx-gx1+1)*n], ay, value)
		}
	}
}

// axisFactors computes, for the polynomial cells g1..g2 along one axis (cell
// g spans [origin+g*size, origin+(g+1)*size)), the Lemma-4 factors of the
// part of [bmin, bmax] inside each cell, in the cell's normalized
// coordinates. It returns the cells first..last the interval overlaps —
// first > last when none — having written their factors to f, Degree+1 values
// per cell from first on. Where a cell edge cuts the interval the normalized
// endpoint is exactly -1 or 1, where cheb.BoxFactors' sine is exactly 0.
//
// The overlapped cells are one run: a cell between two overlapped cells lies
// wholly inside the interval (its neighbours' shared edges are the same
// floats), so only the first and last candidates can miss it — when the
// interval ends on their edge, or so close to it that the normalized overlap
// rounds to nothing.
func (s *Surface) axisFactors(f []float64, g1, g2 int, origin, size, bmin, bmax float64) (first, last int) {
	n := s.cfg.Degree + 1
	first, last = g1, g1-1
	for g := g1; g <= g2; g++ {
		cmin := origin + float64(g)*size
		cmax := origin + float64(g+1)*size
		lo, hi := math.Max(cmin, bmin), math.Min(cmax, bmax)
		w := cmax - cmin
		i := (last + 1 - first) * n
		if hi > lo && cheb.BoxFactors(f[i:i+n], 2*(lo-cmin)/w-1, 2*(hi-cmin)/w-1) {
			last = g
		} else if last < first {
			first, last = g+1, g // nothing overlapped yet: the run starts later
		} else {
			break
		}
	}
	return first, last
}

func (s *Surface) normX(x float64, cell geom.Rect) float64 {
	return 2*(x-cell.MinX)/cell.Width() - 1
}

func (s *Surface) normY(y float64, cell geom.Rect) float64 {
	return 2*(y-cell.MinY)/cell.Height() - 1
}

// Density returns the approximated point density at p and time t. Out-of-
// window timestamps yield zero.
func (s *Surface) Density(t motion.Tick, p geom.Point) float64 {
	if t < s.base || t > s.base+s.cfg.Horizon {
		return 0
	}
	gx, gy := s.cellOf(p)
	series, cell := s.Cell(t, gx, gy)
	return series.Eval(s.normX(p.X, cell), s.normY(p.Y, cell))
}
