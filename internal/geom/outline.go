package geom

import "sort"

// Ring is a closed rectilinear polygon boundary: consecutive vertices are
// joined by axis-parallel segments, and the last vertex connects back to the
// first. Outer boundaries are counter-clockwise; holes are clockwise.
type Ring []Point

// Outline converts the region into its rectilinear boundary rings — the
// actual "arbitrary shape" dense regions the PDR paper advertises, rather
// than a bag of rectangles. Overlapping and adjacent rectangles merge; the
// result contains one outer ring per connected component plus one ring per
// hole.
//
// The algorithm rasterizes the region onto the compressed coordinate grid
// (every rectangle edge coordinate becomes a grid line), collects the
// elementary boundary edges (cell sides where coverage flips), and stitches
// them into rings, preferring straight continuation so collinear segments
// merge.
func (g Region) Outline() []Ring {
	rects := make([]Rect, 0, len(g))
	for _, r := range g {
		if !r.IsEmpty() {
			rects = append(rects, r)
		}
	}
	if len(rects) == 0 {
		return nil
	}
	xs := make([]float64, 0, 2*len(rects))
	ys := make([]float64, 0, 2*len(rects))
	for _, r := range rects {
		xs = append(xs, r.MinX, r.MaxX)
		ys = append(ys, r.MinY, r.MaxY)
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	xs = dedupFloat64s(xs)
	ys = dedupFloat64s(ys)
	nx, ny := len(xs)-1, len(ys)-1 // elementary cells

	xi := func(v float64) int { return sort.SearchFloat64s(xs, v) }
	yi := func(v float64) int { return sort.SearchFloat64s(ys, v) }

	covered := make([]bool, nx*ny)
	for _, r := range rects {
		x1, x2 := xi(r.MinX), xi(r.MaxX)
		y1, y2 := yi(r.MinY), yi(r.MaxY)
		for x := x1; x < x2; x++ {
			for y := y1; y < y2; y++ {
				covered[x*ny+y] = true
			}
		}
	}
	at := func(x, y int) bool {
		if x < 0 || x >= nx || y < 0 || y >= ny {
			return false
		}
		return covered[x*ny+y]
	}

	// Directed boundary edges on grid vertices, oriented so the covered
	// side is on the left (outer rings come out counter-clockwise).
	// out[v] lists edges leaving v.
	out := make(map[gridVertex][]gridVertex)
	addEdge := func(a, b gridVertex) {
		out[a] = append(out[a], b)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if !at(x, y) {
				continue
			}
			if !at(x, y-1) { // bottom edge, rightward
				addEdge(gridVertex{x, y}, gridVertex{x + 1, y})
			}
			if !at(x, y+1) { // top edge, leftward
				addEdge(gridVertex{x + 1, y + 1}, gridVertex{x, y + 1})
			}
			if !at(x-1, y) { // left edge, downward
				addEdge(gridVertex{x, y + 1}, gridVertex{x, y})
			}
			if !at(x+1, y) { // right edge, upward
				addEdge(gridVertex{x + 1, y}, gridVertex{x + 1, y + 1})
			}
		}
	}

	// Stitch edges into rings. At degree-2 vertices continuation is
	// unambiguous; at pinch vertices (two diagonal cells meeting) prefer
	// the leftmost turn so rings stay simple.
	var rings []Ring
	// Deterministic iteration: collect and sort starting vertices.
	starts := make([]gridVertex, 0, len(out))
	for v := range out {
		starts = append(starts, v)
	}
	sort.Slice(starts, func(i, j int) bool {
		if starts[i].x != starts[j].x {
			return starts[i].x < starts[j].x
		}
		return starts[i].y < starts[j].y
	})
	popEdge := func(from gridVertex, prefer func(gridVertex) int) (gridVertex, bool) {
		cands := out[from]
		if len(cands) == 0 {
			return gridVertex{}, false
		}
		best := 0
		if len(cands) > 1 && prefer != nil {
			bestScore := prefer(cands[0])
			for i := 1; i < len(cands); i++ {
				if s := prefer(cands[i]); s < bestScore {
					best, bestScore = i, s
				}
			}
		}
		to := cands[best]
		cands[best] = cands[len(cands)-1]
		out[from] = cands[:len(cands)-1]
		if len(out[from]) == 0 {
			delete(out, from)
		}
		return to, true
	}
	for _, start := range starts {
		for len(out[start]) > 0 {
			var ring []gridVertex
			cur := start
			var dirX, dirY int
			for {
				next, ok := popEdge(cur, func(c gridVertex) int {
					// Prefer a left turn relative to the incoming
					// direction, then straight, then right — the standard
					// way to keep pinched rings simple.
					tdx, tdy := c.x-cur.x, c.y-cur.y
					cross := dirX*tdy - dirY*tdx
					switch {
					case cross > 0:
						return 0 // left
					case cross == 0 && (tdx != -dirX || tdy != -dirY):
						return 1 // straight
					default:
						return 2
					}
				})
				if !ok {
					break
				}
				ring = append(ring, cur)
				dirX, dirY = next.x-cur.x, next.y-cur.y
				cur = next
				if cur == ring[0] {
					break
				}
			}
			if len(ring) < 4 {
				continue
			}
			rings = append(rings, simplifyRing(ring, xs, ys))
		}
	}
	return rings
}

// gridVertex is a vertex of the compressed coordinate grid used by Outline.
type gridVertex struct{ x, y int }

// simplifyRing converts grid vertices to world points, dropping collinear
// intermediate vertices.
func simplifyRing(vs []gridVertex, xs, ys []float64) Ring {
	n := len(vs)
	var ring Ring
	for i := 0; i < n; i++ {
		prev := vs[(i-1+n)%n]
		cur := vs[i]
		next := vs[(i+1)%n]
		// Keep cur only if direction changes there.
		d1x, d1y := sign(cur.x-prev.x), sign(cur.y-prev.y)
		d2x, d2y := sign(next.x-cur.x), sign(next.y-cur.y)
		if d1x != d2x || d1y != d2y {
			ring = append(ring, Point{X: xs[cur.x], Y: ys[cur.y]})
		}
	}
	return ring
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// RingArea returns the signed area of the ring (positive for
// counter-clockwise orientation) via the shoelace formula.
func RingArea(r Ring) float64 {
	var sum float64
	n := len(r)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += r[i].X*r[j].Y - r[j].X*r[i].Y
	}
	return sum / 2
}
