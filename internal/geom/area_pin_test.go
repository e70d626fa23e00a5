package geom_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// referenceUnionArea is geom.UnionArea as it stood before its scratch was
// pooled and its y indices were read off the sort order: a search per edge,
// events ordered by an unstable reflection sort. The rewrite promises the
// same float, bit for bit — interval replies and standing-query events carry
// this number, and snapshot replies a sum pinned against it — and the
// tests below hold it to that.
func referenceUnionArea(rects []geom.Rect) float64 {
	type event struct {
		x      float64
		y1, y2 int
		delta  int
	}
	var ys []float64
	for _, r := range rects {
		if !r.IsEmpty() {
			ys = append(ys, r.MinY, r.MaxY)
		}
	}
	if len(ys) == 0 {
		return 0
	}
	sort.Float64s(ys)
	uniq := ys[:1]
	for _, v := range ys[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	ys = uniq
	var events []event
	for _, r := range rects {
		if r.IsEmpty() {
			continue
		}
		y1, y2 := sort.SearchFloat64s(ys, r.MinY), sort.SearchFloat64s(ys, r.MaxY)
		events = append(events, event{r.MinX, y1, y2, +1}, event{r.MaxX, y1, y2, -1})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].x < events[j].x })

	m := len(ys) - 1
	if m < 1 {
		m = 1
	}
	cover, length := make([]int, 4*m), make([]float64, 4*m)
	var update func(node, nodeL, nodeR, l, r, delta int)
	update = func(node, nodeL, nodeR, l, r, delta int) {
		if r <= nodeL || nodeR <= l {
			return
		}
		if l <= nodeL && nodeR <= r {
			cover[node] += delta
		} else {
			mid := (nodeL + nodeR) / 2
			update(2*node, nodeL, mid, l, r, delta)
			update(2*node+1, mid, nodeR, l, r, delta)
		}
		switch {
		case cover[node] > 0:
			length[node] = ys[nodeR] - ys[nodeL]
		case nodeR-nodeL == 1:
			length[node] = 0
		default:
			length[node] = length[2*node] + length[2*node+1]
		}
	}
	var area float64
	prevX := events[0].x
	for _, e := range events {
		if e.x > prevX {
			area += (e.x - prevX) * length[1]
			prevX = e.x
		}
		if e.y1 < e.y2 {
			update(1, 0, len(ys)-1, e.y1, e.y2, e.delta)
		}
	}
	return area
}

func sameArea(t *testing.T, label string, g geom.Region) {
	t.Helper()
	got, want := g.Area(), referenceUnionArea(g)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (%d rects): Area() = %v (%#x), reference %v (%#x)",
			label, len(g), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAreaBitsOfQueryAnswers measures what the engine's answers are made of:
// FR answers (disjoint, coalesced), PA answers (branch-and-bound boxes), the
// DH baselines, and interval answers, whose per-timestamp parts overlap —
// from an engine over a clustered population, twice through the pooled
// scratch — and holds core.Result.Area to the same reference.
func TestAreaBitsOfQueryAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, err := core.NewServer(core.Config{
		Area: geom.NewRect(0, 0, 1000, 1000), U: 60, W: 30,
		HistM: 100, PAGrid: 4, PADegree: 3, PAMD: 64, L: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]motion.State, 1500)
	for i := range states {
		c := geom.Point{X: 200 + 300*float64(i%3), Y: 250 + 250*float64(i%2)}
		states[i] = motion.State{
			ID:  motion.ObjectID(i + 1),
			Pos: geom.Point{X: c.X + rng.NormFloat64()*60, Y: c.Y + rng.NormFloat64()*60},
			Vel: geom.Vec{X: (rng.Float64() - 0.5) * 6, Y: (rng.Float64() - 0.5) * 6},
		}
	}
	if err := s.Load(states); err != nil {
		t.Fatal(err)
	}
	q := core.Query{Rho: 3 * 1500 / 1e6, L: 60, At: 2}
	for round := 0; round < 2; round++ {
		for _, m := range []core.Method{core.FR, core.PA, core.DHOptimistic, core.DHPessimistic, core.BruteForce} {
			res, err := s.Snapshot(q, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Region) < 5 {
				t.Fatalf("%v snapshot: %d rects pin nothing", m, len(res.Region))
			}
			sameArea(t, m.String()+" snapshot", res.Region)
			// The result's own figure is the plain sum of its disjoint
			// rectangles: the same number up to summation order.
			if want := referenceUnionArea(res.Region); math.Abs(res.Area-want) > 1e-12*want {
				t.Fatalf("%v snapshot: Result.Area %v, reference measure %v", m, res.Area, want)
			}
		}
		for _, m := range []core.Method{core.FR, core.PA} {
			res, err := s.Interval(q, q.At+4, m)
			if err != nil {
				t.Fatal(err)
			}
			if covered, sum := res.Region.Area(), geom.DisjointArea(res.Region); !(sum > covered*1.01) {
				t.Fatalf("%v interval: rectangle areas sum to %g over a union of %g — no overlap to measure", m, sum, covered)
			}
			sameArea(t, m.String()+" interval", res.Region)
			// Overlapping parts: the result's figure is the measure itself.
			if want := referenceUnionArea(res.Region); math.Float64bits(res.Area) != math.Float64bits(want) {
				t.Fatalf("%v interval: Result.Area %v, reference measure %v", m, res.Area, want)
			}
		}
	}
}

// TestAreaBitsRandom: rectangle soups on a coarse lattice (many shared x and
// y coordinates, duplicates, nesting, empties) and continuous ones.
func TestAreaBitsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		lattice := []float64{1, 4, 1 << 30}[trial%3]
		coord := func() float64 { return math.Floor(rng.Float64()*40*lattice) / lattice }
		g := make(geom.Region, rng.Intn(200))
		for i := range g {
			x, y := coord(), coord()
			g[i] = geom.NewRect(x, y, x+coord()/4, y+coord()/4) // some are empty
			if i > 0 && rng.Intn(10) == 0 {
				g[i] = g[rng.Intn(i)]
			}
		}
		sameArea(t, "soup", g)
	}
}
