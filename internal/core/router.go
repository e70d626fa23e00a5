package core

import (
	"fmt"
	"math"
	"sort"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/zcurve"
)

// gridBits fixes the partition grid at 2^gridBits cells per axis (64 x 64 =
// 4096 cells), fine enough that contiguous Morton ranges balance well for
// any shard count up to MaxShards while keeping the per-query shard test a
// couple of BIGMIN walks.
const gridBits = 6

// MaxShards bounds the shard count so owner sets fit a uint64 bitmask.
const MaxShards = 64

// router maps the monitored plane onto N shards: the area is cut into a
// 2^gridBits x 2^gridBits grid, cells are linearized by the Z-order curve
// (internal/zcurve), and each shard owns one contiguous range of Morton
// codes. Contiguity on the curve keeps each shard's territory spatially
// clustered, so a query window usually touches few shards.
type router struct {
	area         geom.Rect
	n            int
	cells        uint32 // per-axis cell count (2^gridBits)
	cellW, cellH float64
	// starts[i] is the first Morton code shard i owns; shard i's range is
	// [starts[i], starts[i+1]). The grid is a full power-of-two square, so
	// every code in [0, cells^2) addresses a real cell.
	starts []uint64
}

// newRouter partitions area across n shards (1 <= n <= MaxShards).
func newRouter(area geom.Rect, n int) (*router, error) {
	if area.IsEmpty() {
		return nil, fmt.Errorf("core: empty area")
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("core: shard count %d outside [1, %d]", n, MaxShards)
	}
	cells := uint32(1) << gridBits
	total := uint64(cells) * uint64(cells)
	r := &router{
		area:  area,
		n:     n,
		cells: cells,
		cellW: area.Width() / float64(cells),
		cellH: area.Height() / float64(cells),
	}
	r.starts = make([]uint64, n+1)
	for i := 0; i <= n; i++ {
		r.starts[i] = uint64(i) * total / uint64(n)
	}
	return r, nil
}

// cellOf returns the grid cell holding p, clamped to the grid so every
// point — even one outside the area — routes deterministically.
func (r *router) cellOf(p geom.Point) (uint32, uint32) {
	cx := int((p.X - r.area.MinX) / r.cellW)
	cy := int((p.Y - r.area.MinY) / r.cellH)
	return clampCell(cx, r.cells), clampCell(cy, r.cells)
}

func clampCell(c int, cells uint32) uint32 {
	if c < 0 {
		return 0
	}
	if c >= int(cells) {
		return cells - 1
	}
	return uint32(c)
}

// shardOfCode returns the shard owning the Morton code.
func (r *router) shardOfCode(code uint64) int {
	// The first start beyond code ends the owning range.
	return sort.Search(r.n, func(i int) bool { return r.starts[i+1] > code })
}

// Owner returns the shard that owns point p (primary ownership is by the
// object's reported position).
func (r *router) Owner(p geom.Point) int {
	cx, cy := r.cellOf(p)
	return r.shardOfCode(zcurve.Interleave(cx, cy))
}

// Intersecting returns the bitmask of shards whose territory intersects w.
// The cell range is computed conservatively (closed bounds, clamped), so the
// mask can include a shard that only touches w's boundary — never exclude
// one that overlaps it, which is what scatter correctness needs.
func (r *router) Intersecting(w geom.Rect) uint64 {
	return r.intersectingBox(w.MinX, w.MinY, w.MaxX, w.MaxY)
}

// intersectingBox is Intersecting over raw closed coordinates, accepting
// degenerate (zero-extent) boxes such as a stationary object's coverage.
func (r *router) intersectingBox(minX, minY, maxX, maxY float64) uint64 {
	if minX > r.area.MaxX || maxX < r.area.MinX || minY > r.area.MaxY || maxY < r.area.MinY {
		return 0
	}
	x1 := clampCell(int(math.Floor((minX-r.area.MinX)/r.cellW)), r.cells)
	y1 := clampCell(int(math.Floor((minY-r.area.MinY)/r.cellH)), r.cells)
	x2 := clampCell(int(math.Floor((maxX-r.area.MinX)/r.cellW)), r.cells)
	y2 := clampCell(int(math.Floor((maxY-r.area.MinY)/r.cellH)), r.cells)
	var mask uint64
	for i := 0; i < r.n; i++ {
		lo, hi := r.starts[i], r.starts[i+1]
		// Does [lo, hi) contain a code inside the window? Either the range's
		// first code is in it, or the smallest in-window code above lo
		// (BIGMIN) still precedes hi.
		if zcurve.InWindow(lo, x1, y1, x2, y2) {
			mask |= 1 << uint(i)
			continue
		}
		if b, ok := zcurve.BigMin(lo, x1, y1, x2, y2); ok && b < hi {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// OwnersOf computes an object's shard registration at engine time now: the
// primary owner (by reported position) and the replica mask — every other
// shard whose territory the object's predicted in-area trajectory can reach
// at any queryable timestamp (qt >= now, extrapolating backward when the
// state's reference time lies ahead of the clock). Replicas make the scatter
// exact for boundary-straddling objects; the merge dedups them by object ID.
func (r *router) OwnersOf(st motion.State, now motion.Tick) (primary int, replicas uint64) {
	primary = r.Owner(st.Pos)
	s0 := 0.0
	if d := float64(now) - float64(st.Ref); d < 0 {
		s0 = d // queries can predate Ref until the clock catches up
	}
	minX, minY, maxX, maxY, ok := coverage(r.area, st, s0)
	if !ok {
		return primary, 0
	}
	// The index retrieves by grown query windows and positions are exact, so
	// the trajectory bbox itself bounds every position the object can occupy
	// in-area — no epsilon growth needed.
	replicas = r.intersectingBox(minX, minY, maxX, maxY) &^ (1 << uint(primary))
	return primary, replicas
}

// coverage returns the closed bounding box of the object's predicted
// positions within the area over its queryable lifetime: the ray
// p(s) = Pos + s*Vel, s >= s0, clipped to the (closed) area. ok is false when
// the ray never enters the area — the object then exists nowhere under the
// population contract and needs no replicas.
func coverage(area geom.Rect, st motion.State, s0 float64) (minX, minY, maxX, maxY float64, ok bool) {
	lo, hi := s0, math.Inf(1)
	clip := func(pos, vel, min, max float64) bool {
		if vel == 0 {
			return pos >= min && pos <= max
		}
		s1, s2 := (min-pos)/vel, (max-pos)/vel
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		if s1 > lo {
			lo = s1
		}
		if s2 < hi {
			hi = s2
		}
		return true
	}
	if !clip(st.Pos.X, st.Vel.X, area.MinX, area.MaxX) ||
		!clip(st.Pos.Y, st.Vel.Y, area.MinY, area.MaxY) || hi < lo {
		return 0, 0, 0, 0, false
	}
	if math.IsInf(hi, 1) {
		hi = lo // both velocity components zero: the coverage is one point
	}
	x1, y1 := st.Pos.X+lo*st.Vel.X, st.Pos.Y+lo*st.Vel.Y
	x2, y2 := st.Pos.X+hi*st.Vel.X, st.Pos.Y+hi*st.Vel.Y
	return math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2), true
}
