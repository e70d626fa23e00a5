// Package dh implements the density histogram (DH) of the PDR paper
// (Sec. 5): for every timestamp t in the maintenance horizon [now, now+H], an
// m x m grid of counters records how many predicted object positions fall in
// each cell. The histogram is updated incrementally from the location-update
// stream and supports the filtering step of the exact filtering-refinement
// method — classifying each cell as accepted (certainly dense), rejected
// (certainly not dense) or candidate — as well as the optimistic/pessimistic
// DH-only baselines the paper compares against.
//
// Timing model. An insert with reference time ref contributes to timestamps
// [ref, ref+H]. Because every object re-reports within U ticks and queries
// target at most W ticks ahead (H = U + W), every live object's contribution
// covers every queryable timestamp. The histogram ring rotates as time
// advances; a delete at time now removes the stale contribution from
// [now, oldRef+H].
package dh

import (
	"fmt"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Config parameterizes a histogram.
type Config struct {
	// Area is the indexed plane.
	Area geom.Rect
	// M is the grid resolution per axis (M x M cells). The paper uses
	// 10,000..62,500 total cells.
	M int
	// Horizon is H = U + W in ticks.
	Horizon motion.Tick
}

// Histogram maintains the per-timestamp grids.
type Histogram struct {
	cfg    Config
	lcX    float64 // cell width
	lcY    float64 // cell height
	base   motion.Tick
	slots  [][]int32 // Horizon+1 slots, each M*M counters; slot for absolute t is t mod (H+1)
	filled bool      // base initialized by first Advance/Insert
}

// New creates an empty histogram.
func New(cfg Config) (*Histogram, error) {
	if cfg.Area.IsEmpty() {
		return nil, fmt.Errorf("dh: empty area")
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("dh: M must be >= 1, got %d", cfg.M)
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("dh: negative horizon %d", cfg.Horizon)
	}
	h := &Histogram{
		cfg:   cfg,
		lcX:   cfg.Area.Width() / float64(cfg.M),
		lcY:   cfg.Area.Height() / float64(cfg.M),
		slots: make([][]int32, cfg.Horizon+1),
	}
	for i := range h.slots {
		h.slots[i] = make([]int32, cfg.M*cfg.M)
	}
	return h, nil
}

// M returns the per-axis grid resolution.
func (h *Histogram) M() int { return h.cfg.M }

// Horizon returns H.
func (h *Histogram) Horizon() motion.Tick { return h.cfg.Horizon }

// Now returns the first maintained timestamp.
func (h *Histogram) Now() motion.Tick { return h.base }

// MemoryBytes returns the counter storage footprint, the quantity the
// paper's memory-accuracy trade-off (Fig. 8c/8d) varies.
func (h *Histogram) MemoryBytes() int {
	return len(h.slots) * h.cfg.M * h.cfg.M * 4
}

func (h *Histogram) slot(t motion.Tick) []int32 {
	n := motion.Tick(len(h.slots))
	return h.slots[((t%n)+n)%n]
}

// Advance moves the maintained window to [now, now+H], clearing slots that
// rotate in. Advance never moves backwards.
func (h *Histogram) Advance(now motion.Tick) {
	if !h.filled {
		h.base = now
		h.filled = true
		return
	}
	if now <= h.base {
		return
	}
	// Slots for (base+H, now+H] are new; clear them. If the jump exceeds
	// the ring length, every slot is cleared exactly once.
	from, to := h.base+h.cfg.Horizon+1, now+h.cfg.Horizon
	if to-from >= motion.Tick(len(h.slots)) {
		from = to - motion.Tick(len(h.slots)) + 1
	}
	for t := from; t <= to; t++ {
		s := h.slot(t)
		for i := range s {
			s[i] = 0
		}
	}
	h.base = now
}

// cellIndex returns the (i, j) cell holding p, clamped to the grid.
func (h *Histogram) cellIndex(p geom.Point) (int, int) {
	i := int((p.X - h.cfg.Area.MinX) / h.lcX)
	j := int((p.Y - h.cfg.Area.MinY) / h.lcY)
	if i < 0 {
		i = 0
	}
	if i >= h.cfg.M {
		i = h.cfg.M - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= h.cfg.M {
		j = h.cfg.M - 1
	}
	return i, j
}

// CellRect returns the half-open rectangle of cell (i, j).
func (h *Histogram) CellRect(i, j int) geom.Rect {
	return geom.NewRect(
		h.cfg.Area.MinX+float64(i)*h.lcX,
		h.cfg.Area.MinY+float64(j)*h.lcY,
		h.cfg.Area.MinX+float64(i+1)*h.lcX,
		h.cfg.Area.MinY+float64(j+1)*h.lcY,
	)
}

// Insert adds the movement's predicted trajectory to every maintained
// timestamp it covers: [max(s.Ref, now), s.Ref+H] clipped to the window.
func (h *Histogram) Insert(s motion.State) {
	h.apply(s, s.Ref, +1)
}

// Delete removes a stale movement's remaining contribution: timestamps
// [at, s.Ref+H] clipped to the window (s is the state as originally
// inserted; at is the server time of the deletion).
func (h *Histogram) Delete(s motion.State, at motion.Tick) {
	h.apply(s, at, -1)
}

// Apply dispatches an update record to Insert or Delete.
func (h *Histogram) Apply(u motion.Update) {
	switch u.Kind {
	case motion.Insert:
		h.Insert(u.State)
	case motion.Delete:
		h.Delete(u.State, u.At)
	}
}

func (h *Histogram) apply(s motion.State, from motion.Tick, delta int32) {
	if !h.filled {
		h.base = from
		h.filled = true
	}
	lo, hi := from, s.Ref+h.cfg.Horizon
	if lo < h.base {
		lo = h.base
	}
	if hi > h.base+h.cfg.Horizon {
		hi = h.base + h.cfg.Horizon
	}
	for t := lo; t <= hi; t++ {
		p := s.PositionAt(t)
		// An object whose predicted position leaves the monitored area does
		// not exist at that timestamp (see the package contract): skipping
		// here, in Delete's identical recomputation, and in every query
		// method keeps all methods exactly consistent.
		if !h.cfg.Area.Contains(p) {
			continue
		}
		i, j := h.cellIndex(p)
		h.slot(t)[i*h.cfg.M+j] += delta
	}
}

// Count returns the number of objects predicted in cell (i, j) at time t.
func (h *Histogram) Count(t motion.Tick, i, j int) int {
	if t < h.base || t > h.base+h.cfg.Horizon {
		return 0
	}
	return int(h.slot(t)[i*h.cfg.M+j])
}

// Total returns the total count at timestamp t across all cells (equals the
// number of live objects whose coverage includes t).
func (h *Histogram) Total(t motion.Tick) int {
	if t < h.base || t > h.base+h.cfg.Horizon {
		return 0
	}
	var sum int
	for _, c := range h.slot(t) {
		sum += int(c)
	}
	return sum
}
