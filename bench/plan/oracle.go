package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// AreaEdge is the monitored plane's edge (the product default: a
// 1,000 x 1,000 square at the origin). An object whose extrapolated position
// leaves [0, AreaEdge)^2 does not exist at that timestamp.
const AreaEdge = 1000.0

// World is the harness's own copy of every object state it has sent to the
// server, which is what makes the answer check independent of the engine.
type World struct {
	Now  int64
	Live map[uint64]Record
}

// NewWorld returns an empty world.
func NewWorld() *World { return &World{Live: make(map[uint64]Record)} }

// Apply folds one record into the world the way pdrserve does: a state or
// insert makes the movement live, a delete retires it, a tick moves the
// clock.
func (w *World) Apply(r Record) error {
	switch r.Kind {
	case KindState, KindInsert:
		if _, ok := w.Live[r.ID]; ok {
			return fmt.Errorf("plan: insert of live object %d", r.ID)
		}
		w.Live[r.ID] = r
	case KindDelete:
		if _, ok := w.Live[r.ID]; !ok {
			return fmt.Errorf("plan: delete of unknown object %d", r.ID)
		}
		delete(w.Live, r.ID)
	case KindTick:
		w.Now = r.Tick
	default:
		return fmt.Errorf("plan: unknown record kind %q", r.Kind)
	}
	return nil
}

// ApplyLines parses JSONL and applies every record.
func (w *World) ApplyLines(data []byte) error {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if err := w.ApplyLine(line); err != nil {
			return err
		}
	}
	return nil
}

// ApplyLine parses and applies one record.
func (w *World) ApplyLine(line []byte) error {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return fmt.Errorf("plan: bad record %q: %w", line, err)
	}
	return w.Apply(r)
}

// ApplyTick moves the clock to the batch's tick and applies its updates.
func (w *World) ApplyTick(b TickBatch) error {
	w.Now = b.Now
	for _, l := range b.Lines {
		if err := w.ApplyLine(l); err != nil {
			return err
		}
	}
	return nil
}

// Point is a location in the plane.
type Point struct{ X, Y float64 }

// Rect is one half-open rectangle [MinX, MaxX) x [MinY, MaxY) of a query
// answer, in the API's JSON shape.
type Rect struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// PositionsAt extrapolates every live movement to timestamp at and keeps the
// positions inside the monitored area, ordered by object id so that sampling
// from them is reproducible.
func (w *World) PositionsAt(at int64) []Point {
	ids := make([]uint64, 0, len(w.Live))
	for id := range w.Live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pts := make([]Point, 0, len(ids))
	for _, id := range ids {
		r := w.Live[id]
		dt := float64(at - r.Ref)
		p := Point{r.X + dt*r.VX, r.Y + dt*r.VY}
		if p.X >= 0 && p.X < AreaEdge && p.Y >= 0 && p.Y < AreaEdge {
			pts = append(pts, p)
		}
	}
	return pts
}

// SamplePoints draws n check points: half uniformly over the plane and half
// within l of a randomly chosen object, because uniform points alone almost
// never land in or beside a dense region (a few percent of the plane).
func SamplePoints(rng *rand.Rand, objects []Point, l float64, n int) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 || len(objects) == 0 {
			pts = append(pts, Point{rng.Float64() * AreaEdge, rng.Float64() * AreaEdge})
			continue
		}
		o := objects[rng.Intn(len(objects))]
		pts = append(pts, Point{o.X + (2*rng.Float64()-1)*l, o.Y + (2*rng.Float64()-1)*l})
	}
	return pts
}

// Threshold is the object count that makes a point rho-dense for edge l.
func Threshold(rho, l float64) int { return int(math.Ceil(rho * l * l)) }

// Dense reports whether p is rho-dense: whether its l-square neighbourhood,
// open on the left and bottom and closed on the right and top, holds at
// least Threshold objects. This is the paper's definition counted directly,
// with no sweep, filter or index involved.
func Dense(objects []Point, p Point, rho, l float64) bool {
	need := Threshold(rho, l)
	if need <= 0 {
		return true
	}
	h := l / 2
	n := 0
	for _, o := range objects {
		if p.X-h < o.X && o.X <= p.X+h && p.Y-h < o.Y && o.Y <= p.Y+h {
			n++
			if n >= need {
				return true
			}
		}
	}
	return false
}

// Grid buckets positions into square cells of edge l, so that counting a
// point's l-square reads the four cells it can touch instead of every object.
// It counts exactly what Dense counts — the tests hold the two together — and
// exists only because a run checks tens of thousands of sample points.
type Grid struct {
	l     float64
	cols  int
	cells [][]Point
}

// NewGrid buckets the objects, all inside the monitored area.
func NewGrid(objects []Point, l float64) *Grid {
	g := &Grid{l: l, cols: int(AreaEdge/l) + 1}
	g.cells = make([][]Point, g.cols*g.cols)
	for _, o := range objects {
		c := g.cell(o.Y)*g.cols + g.cell(o.X)
		g.cells[c] = append(g.cells[c], o)
	}
	return g
}

// cell is the row or column a coordinate falls in, clamped to the grid.
func (g *Grid) cell(v float64) int {
	return min(max(int(math.Floor(v/g.l)), 0), g.cols-1)
}

// Dense is Dense(objects, p, rho, l) for the objects and l the grid holds.
func (g *Grid) Dense(p Point, rho float64) bool {
	need := Threshold(rho, g.l)
	if need <= 0 {
		return true
	}
	h := g.l / 2
	n := 0
	for row := g.cell(p.Y - h); row <= g.cell(p.Y+h); row++ {
		for col := g.cell(p.X - h); col <= g.cell(p.X+h); col++ {
			for _, o := range g.cells[row*g.cols+col] {
				if p.X-h < o.X && o.X <= p.X+h && p.Y-h < o.Y && o.Y <= p.Y+h {
					n++
					if n >= need {
						return true
					}
				}
			}
		}
	}
	return false
}

// Covered reports whether p lies in one of the answer's half-open rectangles.
func Covered(rects []Rect, p Point) bool {
	for _, r := range rects {
		if p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY {
			return true
		}
	}
	return false
}

// Verdict is the outcome of checking one answer at the sample points.
type Verdict struct {
	Points        int // sample points inside the monitored area
	TrulyDense    int
	FalsePositive int // covered by the answer but not dense
	FalseNegative int // dense but not covered
}

// Mismatch is the number of sample points where answer and oracle disagree.
func (v Verdict) Mismatch() int { return v.FalsePositive + v.FalseNegative }

// CheckAnswer compares an answer with the oracle at every sample point
// inside the monitored area (the server answers only there).
func CheckAnswer(objects []Point, rects []Rect, samples []Point, rho, l float64) Verdict {
	var v Verdict
	grid := NewGrid(objects, l)
	for _, p := range samples {
		if p.X < 0 || p.X >= AreaEdge || p.Y < 0 || p.Y >= AreaEdge {
			continue
		}
		v.Points++
		dense := grid.Dense(p, rho)
		covered := Covered(rects, p)
		switch {
		case dense && covered:
			v.TrulyDense++
		case dense:
			v.TrulyDense++
			v.FalseNegative++
		case covered:
			v.FalsePositive++
		}
	}
	return v
}
