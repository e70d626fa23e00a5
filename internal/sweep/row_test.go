package sweep

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdr/internal/geom"
)

// perCellReference is the pipeline DenseRectsRow must reproduce bit for bit:
// every cell refined alone by the reference kernel over the objects of its
// own closed grown window, the parts concatenated in cell order.
func perCellReference(points []geom.Point, cells []geom.Rect, rho, l float64) geom.Region {
	var out geom.Region
	for _, c := range cells {
		window := c.Grow(l / 2)
		var in []geom.Point
		for _, p := range points {
			if window.ContainsClosed(p) {
				in = append(in, p)
			}
		}
		out = append(out, referenceDenseRects(in, c, rho, l)...)
	}
	return out
}

// sameBits asserts two regions hold the same rectangles, in order, float bit
// for float bit.
func sameBits(t *testing.T, label string, got, want geom.Region) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rects, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.MinX) != math.Float64bits(w.MinX) || math.Float64bits(g.MinY) != math.Float64bits(w.MinY) ||
			math.Float64bits(g.MaxX) != math.Float64bits(w.MaxX) || math.Float64bits(g.MaxY) != math.Float64bits(w.MaxY) {
			t.Fatalf("%s: rect %d = %v, want %v", label, i, g, w)
		}
	}
}

// row builds a run on the Y extent [y0, y1) from alternating cell widths and
// gaps: xs = x0, w0, g0, w1, g1, ...
func row(y0, y1, x0 float64, widthsAndGaps ...float64) []geom.Rect {
	var cells []geom.Rect
	x := x0
	for i, v := range widthsAndGaps {
		if i%2 == 0 {
			cells = append(cells, geom.NewRect(x, y0, x+v, y1))
		}
		x += v
	}
	return cells
}

func TestRowTableCases(t *testing.T) {
	grid := func(x0, y0, x1, y1, step float64) []geom.Point {
		var pts []geom.Point
		for x := x0; x <= x1; x += step {
			for y := y0; y <= y1; y += step {
				pts = append(pts, geom.Point{X: x, Y: y})
			}
		}
		return pts
	}
	cases := []struct {
		name      string
		points    []geom.Point
		cells     []geom.Rect
		threshold int
		l         float64
		wantRects bool
	}{
		{
			name:      "coincident points",
			points:    []geom.Point{{X: 12, Y: 5}, {X: 12, Y: 5}, {X: 12, Y: 5}, {X: 19, Y: 5}, {X: 19, Y: 5}, {X: 30, Y: 4}},
			cells:     row(0, 10, 0, 10, 0, 10, 0, 10),
			threshold: 3, l: 8, wantRects: true,
		},
		{
			// Cell [10,20) grown by 3 is [7,23]: objects exactly on every one
			// of MinX-l/2, MinX+l/2, MaxX-l/2, MaxX+l/2, and on the Y edges.
			name: "points on the grown window's edges",
			points: []geom.Point{
				{X: 7, Y: 5}, {X: 13, Y: 5}, {X: 17, Y: 5}, {X: 23, Y: 5},
				{X: 7, Y: -3}, {X: 23, Y: 13}, {X: 13, Y: 13}, {X: 17, Y: -3},
				{X: 10, Y: 0}, {X: 20, Y: 10}, {X: 33, Y: 5}, {X: 27, Y: 7},
			},
			cells:     row(0, 10, 10, 10, 0, 10, 0, 10),
			threshold: 2, l: 6, wantRects: true,
		},
		{
			name:      "a gap wider than l",
			points:    grid(0, 0, 100, 10, 2.5),
			cells:     row(0, 10, 10, 10, 35, 10, 4, 10),
			threshold: 4, l: 8, wantRects: true,
		},
		{
			name:      "threshold 1",
			points:    []geom.Point{{X: 3, Y: 3}, {X: 14.5, Y: 9.5}, {X: 29, Y: 0}},
			cells:     row(0, 10, 0, 10, 0, 10, 0, 10),
			threshold: 1, l: 5, wantRects: true,
		},
		{
			name:      "no points",
			cells:     row(0, 10, 0, 10, 0, 10),
			threshold: 1, l: 5,
		},
		{
			// The first cell's window holds two objects; the sweep must still
			// start the band correctly at the second cell.
			name: "first cell below the threshold",
			points: append([]geom.Point{{X: 2, Y: 5}, {X: 4, Y: 5}},
				grid(24, 2, 36, 8, 2)...),
			cells:     row(0, 10, 0, 10, 10, 10, 0, 10),
			threshold: 5, l: 8, wantRects: true,
		},
		{
			name:      "an empty cell inside the run",
			points:    grid(0, 0, 40, 10, 2),
			cells:     []geom.Rect{geom.NewRect(0, 0, 10, 10), geom.NewRect(12, 0, 12, 10), geom.NewRect(15, 0, 25, 10)},
			threshold: 6, l: 6, wantRects: true,
		},
		{
			// X = 10 leaves and X = 18 joins the band at the same x = 14, and
			// so do X = 21 and X = 29 at x = 25: one batch of both kinds.
			name: "an enter and an exit at the same X",
			points: append([]geom.Point{{X: 10, Y: 2}, {X: 18, Y: 8}, {X: 21, Y: 5}, {X: 29, Y: 6}},
				grid(8, 1, 30, 9, 4)...),
			cells:     row(0, 10, 6, 10, 0, 10, 2, 10),
			threshold: 5, l: 8, wantRects: true,
		},
		{
			// Y = yb - l/2 covers [yb - l, yb): nothing of the row. The
			// objects at Y = -4 join and leave without a depth changing.
			name: "an object whose row interval is empty",
			points: append([]geom.Point{{X: 11, Y: -4}, {X: 13, Y: -4}, {X: 16, Y: -4}, {X: 22, Y: -4}, {X: 27, Y: 14}},
				grid(10, 2, 30, 8, 3)...),
			cells:     row(0, 10, 10, 10, 0, 10),
			threshold: 4, l: 8, wantRects: true,
		},
		{
			// With l = 12 an object covers the whole row [0, 10) from Y = 4
			// (yt - l/2: its span ends exactly at yt) to Y = 6 (yb + l/2: it
			// starts exactly at yb); 3.5 and 6.5 fall half a unit short. Each
			// group is alone in the band: two whole-row objects and a near
			// miss leave [0, 9.5) and [0.5, 10) dense, three on the edges
			// the whole row.
			name: "whole-row objects on the row's edges",
			points: []geom.Point{
				{X: 10, Y: 4}, {X: 11, Y: 6}, {X: 12, Y: 3.5},
				{X: 30, Y: 6}, {X: 31, Y: 4}, {X: 32, Y: 6.5},
				{X: 50, Y: 4}, {X: 51, Y: 6}, {X: 52, Y: 4},
			},
			cells:     row(0, 10, 0, 20, 0, 20, 0, 20),
			threshold: 3, l: 12, wantRects: true,
		},
		{
			// Exactly threshold whole-row objects at X = 20..24 (l = 12: the
			// band holds all five over [18, 26)), beside partial ones that
			// the walk would count too.
			name: "a whole-row count that hits the threshold exactly",
			points: []geom.Point{
				{X: 20, Y: 5}, {X: 21, Y: 4}, {X: 22, Y: 6}, {X: 23, Y: 5}, {X: 24, Y: 5},
				{X: 19, Y: -0.5}, {X: 22, Y: 10.5}, {X: 25, Y: 14}, {X: 9, Y: 5}, {X: 36, Y: 5},
			},
			cells:     row(0, 10, 10, 10, 0, 10, 0, 10),
			threshold: 5, l: 12, wantRects: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rho := float64(tc.threshold) / (tc.l * tc.l)
			got := DenseRectsRow(tc.points, tc.cells, rho, tc.l)
			want := perCellReference(tc.points, tc.cells, rho, tc.l)
			sameBits(t, tc.name, got, want)
			if tc.wantRects == (len(got) == 0) {
				t.Fatalf("%d rects, want some: %v (a vacuous case pins nothing)", len(got), tc.wantRects)
			}
		})
	}
	if got := DenseRectsRow([]geom.Point{{X: 1, Y: 1}}, nil, 1, 2); got != nil {
		t.Fatalf("an empty run returned %v", got)
	}
}

func TestRowRejectsMixedRows(t *testing.T) {
	for name, cells := range map[string][]geom.Rect{
		"two rows":     {geom.NewRect(0, 0, 10, 10), geom.NewRect(10, 10, 20, 20)},
		"right first":  {geom.NewRect(10, 0, 20, 10), geom.NewRect(0, 0, 10, 10)},
		"overlapping":  {geom.NewRect(0, 0, 10, 10), geom.NewRect(5, 0, 15, 10)},
		"taller third": {geom.NewRect(0, 0, 10, 10), geom.NewRect(10, 0, 20, 10), geom.NewRect(20, 0, 30, 11)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			DenseRectsRow([]geom.Point{{X: 1, Y: 1}}, cells, 1, 2)
		}()
	}
}

// randomRun draws a run of 1..6 cells with gaps below, at and above l, an
// edge l that is a multiple of 1/2, and points on a 1/2 or 1/8 lattice (so
// coincident points and points exactly on enter/exit/window coordinates are
// common) or continuous, some of them outside every window.
func randomRun(rng *rand.Rand) (points []geom.Point, cells []geom.Rect, threshold int, l float64) {
	l = 2 + float64(rng.Intn(20))/2
	threshold = 1 + rng.Intn(12)
	k := 1 + rng.Intn(6)
	y0 := float64(rng.Intn(8))
	edge := 2 + float64(rng.Intn(12))/2
	shape := make([]float64, 0, 2*k)
	for i := 0; i < k; i++ {
		gap := 0.0
		switch rng.Intn(4) {
		case 1:
			gap = float64(rng.Intn(int(2*l)+1)) / 2 // up to and including l
		case 2:
			gap = l + float64(1+rng.Intn(10))/2
		}
		shape = append(shape, edge, gap)
	}
	cells = row(y0, y0+edge, float64(rng.Intn(10)), shape...)
	box := geom.NewRect(cells[0].MinX, y0, cells[k-1].MaxX, y0+edge).Grow(l/2 + 2)
	lattice := [3]float64{2, 8, 1 << 40}[rng.Intn(3)] // the last: continuous
	n := rng.Intn(40 * k)
	for i := 0; i < n; i++ {
		points = append(points, geom.Point{
			X: box.MinX + math.Floor(rng.Float64()*box.Width()*lattice)/lattice,
			Y: box.MinY + math.Floor(rng.Float64()*box.Height()*lattice)/lattice,
		})
	}
	return points, cells, threshold, l
}

// TestRowMatchesPerCellRandom: 2,000 random runs, the row kernel against the
// reference kernel cell by cell, rectangle for rectangle.
func TestRowMatchesPerCellRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nonEmpty := 0
	for trial := 0; trial < 2000; trial++ {
		points, cells, threshold, l := randomRun(rng)
		rho := float64(threshold) / (l * l)
		got := DenseRectsRow(points, cells, rho, l)
		sameBits(t, "run", got, perCellReference(points, cells, rho, l))
		sameSorted(t, points, cells, rho, l, got)
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Fatalf("only %d of 2000 runs produced rectangles; the generator is too sparse to pin anything", nonEmpty)
	}
}

// TestDenseRectsMatchesReferenceRandom: 3,000 random windows, DenseRects (the
// one-cell row) against the kernel it replaced on the same input — continuous
// coordinates, and a superset of the window's objects as BruteForce and
// history.DenseAt pass it.
func TestDenseRectsMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		l := 2 + float64(rng.Intn(40))/2
		threshold := 1 + rng.Intn(12)
		rho := float64(threshold) / (l * l)
		x0, y0 := float64(rng.Intn(50)), float64(rng.Intn(50))
		cell := geom.NewRect(x0, y0, x0+1+float64(rng.Intn(40)), y0+1+float64(rng.Intn(40)))
		points := make([]geom.Point, rng.Intn(120))
		for i := range points {
			points[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			if rng.Intn(8) == 0 && i > 0 {
				points[i] = points[rng.Intn(i)]
			}
		}
		sameBits(t, "window", DenseRects(points, cell, rho, l), referenceDenseRects(points, cell, rho, l))
	}
}

// FuzzDenseRectsRowMatchesPerCell drives the row kernel with fuzz-derived
// runs and requires the per-cell reference pipeline's exact rectangles. The
// area oracle next door (FuzzDenseRectsMatchesOracle) says the rectangles
// are right; this one says they are the same rectangles as before.
func FuzzDenseRectsRowMatchesPerCell(f *testing.F) {
	f.Add([]byte{3, 2, 0x21, 0x43, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 11, 0xf7, 0x3c, 200, 100, 50, 25, 200, 100, 50, 25, 7, 7, 7, 7, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		// Byte 0: l in halves; byte 1: threshold 1..12; bytes 2-3: up to four
		// (width, gap) nibble pairs in halves, gaps reaching past l; the rest:
		// points on a 1/4 lattice over the run's surroundings.
		l := 1 + float64(data[0]%24)/2
		threshold := 1 + int(data[1]%12)
		rho := float64(threshold) / (l * l)
		var shape []float64
		for _, b := range data[2:4] {
			shape = append(shape, 1+float64(b&3), float64(b>>2&3)*l/2)
			shape = append(shape, 1+float64(b>>4&3), float64(b>>6&3)*l/2)
		}
		cells := row(4, 4+1+float64(data[0]>>5), 8, shape...)
		var points []geom.Point
		for i := 4; i+1 < len(data) && len(points) < 96; i += 2 {
			points = append(points, geom.Point{X: float64(data[i]) / 4, Y: float64(data[i+1]%64) / 4})
		}
		got := DenseRectsRow(points, cells, rho, l)
		sameBits(t, "run", got, perCellReference(points, cells, rho, l))
		sameSorted(t, points, cells, rho, l, got)
	})
}

// sameSorted holds DenseRectsRowSorted, given the points in X order, to the
// row kernel's answer want, and to leaving its points as they were.
func sameSorted(t *testing.T, points []geom.Point, cells []geom.Rect, rho, l float64, want geom.Region) {
	t.Helper()
	sorted := append([]geom.Point(nil), points...)
	SortByX(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].X < sorted[i-1].X {
			t.Fatalf("SortByX: %v before %v", sorted[i-1], sorted[i])
		}
	}
	kept := append([]geom.Point(nil), sorted...)
	got, _ := DenseRectsRowSorted(sorted, cells, rho, l)
	sameBits(t, "sorted run", got, want)
	if !slices.Equal(sorted, kept) {
		t.Fatal("DenseRectsRowSorted modified its points")
	}
}

// clusteredRun draws a run shaped like a candidate row at the edge of a road
// cluster: k cells 10 wide on the row [0, 10), l = 30, and a road of objects
// along X — nine in ten covering the whole row, its density rising from
// nothing at the run's left end — over a sparse uniform background. The
// threshold is half the band's road objects at the right end, so the run
// holds sparse steps, partly dense ones and whole-row ones.
func clusteredRun(rng *rand.Rand, k, road int) (points []geom.Point, cells []geom.Rect, rho, l float64) {
	l = 30
	for i := 0; i < k; i++ {
		cells = append(cells, geom.NewRect(float64(10*i), 0, float64(10*i+10), 10))
	}
	span := float64(10*k) + l
	for i := 0; i < road; i++ {
		points = append(points, geom.Point{X: span*math.Sqrt(rng.Float64()) - l/2, Y: 5 + rng.NormFloat64()*6})
	}
	for i := 0; i < road/4; i++ {
		points = append(points, geom.Point{X: rng.Float64()*span - l/2, Y: rng.Float64()*(10+l) - l/2})
	}
	// The band holds 2*road*l/span road objects at the right end.
	return points, cells, float64(road) * l / span / (l * l), l
}

// TestRowSkipsWalks: on a clustered run most dense X steps cannot change the
// dense Y set, and the sweep must see that — at most half of them walk the
// band — while its answer stays the per-cell pipeline's, bit for bit.
func TestRowSkipsWalks(t *testing.T) {
	points, cells, rho, l := clusteredRun(rand.New(rand.NewSource(3)), 6, 600)
	SortByX(points)
	sw := &sweeper{pts: points}
	got := sw.denseRectsRow(cells, int(math.Ceil(rho*l*l)), l/2)
	sameBits(t, "clustered run", got, perCellReference(points, cells, rho, l))
	if len(got) == 0 || sw.dense < 200 {
		t.Fatalf("%d rects over %d dense steps: the run is too sparse to pin anything", len(got), sw.dense)
	}
	if 2*sw.walks > sw.dense {
		t.Fatalf("%d Y walks over %d dense steps: the bounds settle too few", sw.walks, sw.dense)
	}
	if _, walks := DenseRectsRowSorted(points, cells, rho, l); walks != sw.walks {
		t.Fatalf("DenseRectsRowSorted reports %d walks, the sweep ran %d", walks, sw.walks)
	}
	t.Logf("%d Y walks over %d dense steps", sw.walks, sw.dense)
}

// rowOp is a named call and the allocations it is pinned at.
type rowOp struct {
	name string
	op   func()
	pin  float64
}

// rowOps are BenchmarkDenseRectsRow's calls, each a 20-cell run with ~300
// points per grown window — the shape of a row of candidates in the n=20,000
// benchmark — and the allocations each is pinned at: its answer's append
// growth, 15 for a uniform run whether its points are copied and sorted or,
// as the engine passes them, swept in place, and 10 for a clustered run.
func rowOps() []rowOp {
	rng := rand.New(rand.NewSource(1))
	const l = 30.0
	cells := make([]geom.Rect, 20)
	for i := range cells {
		cells[i] = geom.NewRect(float64(10*i), 0, float64(10*i+10), 10)
	}
	// A window is (10+l) x (10+l) = 1,600 square units: 300 points each.
	points := make([]geom.Point, 300*(200+l)*(10+l)/1600)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64()*(200+l) - l/2, Y: rng.Float64()*(10+l) - l/2}
	}
	rho := 300.0 / 1600
	// The engine's call: the points arrive in X order and are swept where
	// they lie.
	sorted := slices.Clone(points)
	SortByX(sorted)
	// Uniform points keep the dense Y set moving at almost every event. The
	// engine's candidates sit where a road cluster thins out: most steps are
	// sparse, whole-row dense, or leave the segments as they were.
	road, _, roadRho, _ := clusteredRun(rng, len(cells), 2000)
	SortByX(road)
	return []rowOp{
		{"copy", func() { DenseRectsRow(points, cells, rho, l) }, 15},
		{"sorted", func() { DenseRectsRowSorted(sorted, cells, rho, l) }, 15},
		{"clustered", func() { DenseRectsRowSorted(road, cells, roadRho, l) }, 10},
	}
}

// BenchmarkDenseRectsRow times rowOps' calls, one sub-benchmark each.
func BenchmarkDenseRectsRow(b *testing.B) {
	for _, c := range rowOps() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op()
			}
		})
	}
}

// TestDenseRectsRowAllocs pins each of BenchmarkDenseRectsRow's calls at its
// answer's growth: one allocation more means scratch stopped being reused.
func TestDenseRectsRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	for _, c := range rowOps() {
		if n := testing.AllocsPerRun(200, c.op); n > c.pin {
			t.Errorf("BenchmarkDenseRectsRow/%s: %v allocs/op, pinned at %v", c.name, n, c.pin)
		}
	}
}

// TestRowIgnoresObjectsOutsideTheWindow pins the argument in DenseRectsRow's
// comment where rounding could break it: continuous coordinates (so MinX - l/2
// and X + l/2 are rounded), and objects exactly on and one ulp either side of
// every edge of every cell's grown window. A cell of the run sees all of them;
// the per-cell pipeline sees only those inside its own closed window.
func TestRowIgnoresObjectsOutsideTheWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		l := 1 + rng.Float64()*4
		half := l / 2
		y0, edge := rng.Float64()*10, 0.5+rng.Float64()*2
		shape := make([]float64, 0, 6)
		for i := 0; i < 3; i++ {
			shape = append(shape, edge, float64(rng.Intn(3))*rng.Float64()*l)
		}
		cells := row(y0, y0+edge, rng.Float64()*10, shape...)
		var points []geom.Point
		ulps := func(v float64) [3]float64 {
			return [3]float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
		}
		for _, c := range cells {
			w := c.Grow(half)
			for _, x := range [2]float64{w.MinX, w.MaxX} {
				for _, x := range ulps(x) {
					points = append(points, geom.Point{X: x, Y: y0 + rng.Float64()*edge})
				}
			}
			for _, y := range [2]float64{w.MinY, w.MaxY} {
				for _, y := range ulps(y) {
					points = append(points, geom.Point{X: c.MinX + rng.Float64()*edge, Y: y})
				}
			}
		}
		rho := float64(1+rng.Intn(3)) / (l * l)
		sameBits(t, "edge-hugging objects", DenseRectsRow(points, cells, rho, l), perCellReference(points, cells, rho, l))
	}
}
