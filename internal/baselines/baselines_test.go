package baselines

import (
	"math"
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/sweep"
)

func area10() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10} }

// TestAnswerLossFigure1a reproduces the paper's Fig. 1(a): four objects in a
// unit square spanning four grid cells. No grid cell is dense, so the
// dense-cell method reports nothing — answer loss — while the PDR answer is
// non-empty and contains the spanning square's center.
func TestAnswerLossFigure1a(t *testing.T) {
	// Grid of unit cells; objects clustered around the corner (5, 5).
	points := []geom.Point{
		{X: 4.8, Y: 4.8}, {X: 5.2, Y: 4.8}, {X: 4.8, Y: 5.2}, {X: 5.2, Y: 5.2},
	}
	rho := 4.0 // 4 objects per unit square

	dc := DenseCells(points, area10(), 10, rho)
	if len(dc) != 0 {
		t.Fatalf("dense-cell method unexpectedly found %v; Fig 1a requires answer loss", dc)
	}

	pdr := sweep.DenseRects(points, area10(), rho, 1)
	if len(pdr) == 0 {
		t.Fatal("PDR must find the dense square spanning the cells")
	}
	if !pdr.Contains(geom.Point{X: 5, Y: 5}) {
		t.Error("PDR answer must contain the center of the spanning square")
	}
}

// TestAmbiguityFigure1b reproduces Fig. 1(b): two overlapping dense squares;
// EDQ picks one depending on scan order, PDR reports both centers.
func TestAmbiguityFigure1b(t *testing.T) {
	// Two clusters of 4, close enough that their l-squares overlap.
	l := 2.0
	left := []geom.Point{{X: 4.0, Y: 5.0}, {X: 4.2, Y: 5.2}, {X: 4.4, Y: 4.8}, {X: 4.2, Y: 4.9}}
	right := []geom.Point{{X: 5.4, Y: 5.1}, {X: 5.6, Y: 5.0}, {X: 5.8, Y: 4.9}, {X: 5.6, Y: 5.2}}
	points := append(append([]geom.Point{}, left...), right...)
	rho := 4.0 / (l * l)

	ltr := EDQ(points, area10(), l, rho, ScanLeftToRight)
	rtl := EDQ(points, area10(), l, rho, ScanRightToLeft)
	if len(ltr) == 0 || len(rtl) == 0 {
		t.Fatal("EDQ must find at least one dense square in each order")
	}
	if ltr[0].Center == rtl[0].Center {
		t.Errorf("expected order-dependent EDQ answers, both start at %v", ltr[0].Center)
	}

	// PDR reports every rho-dense point: both EDQ anchor centers included.
	pdr := sweep.DenseRects(points, area10(), rho, l)
	for _, sq := range append(append([]EDQSquare{}, ltr...), rtl...) {
		if !pdr.Contains(sq.Center) {
			t.Errorf("PDR answer missing EDQ center %v", sq.Center)
		}
	}
}

// TestPDRSupersetOfDenseCells checks the paper's generality claim (Sec. 3.1)
// on random data: the center of every dense cell is rho-dense under PDR with
// l equal to the cell edge.
func TestPDRSupersetOfDenseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		var points []geom.Point
		for c := 0; c < 4; c++ {
			cx, cy := rng.Float64()*10, rng.Float64()*10
			for k := 0; k < 20; k++ {
				points = append(points, geom.Point{X: cx + rng.NormFloat64(), Y: cy + rng.NormFloat64()})
			}
		}
		const m = 10
		l := 1.0 // cell edge
		rho := 5.0
		cells := DenseCells(points, area10(), m, rho)
		if len(cells) == 0 {
			continue
		}
		pdr := sweep.DenseRects(points, area10(), rho, l)
		for _, cell := range cells {
			if !pdr.Contains(cell.Center()) {
				t.Fatalf("trial %d: dense cell center %v not in PDR answer", trial, cell.Center())
			}
		}
	}
}

// TestPDRSupersetOfEDQ: every EDQ square center is rho-dense under PDR.
func TestPDRSupersetOfEDQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		var points []geom.Point
		for c := 0; c < 3; c++ {
			cx, cy := 2+rng.Float64()*6, 2+rng.Float64()*6
			for k := 0; k < 15; k++ {
				points = append(points, geom.Point{X: cx + rng.NormFloat64()*0.5, Y: cy + rng.NormFloat64()*0.5})
			}
		}
		l := 1.5
		rho := 6 / (l * l)
		pdr := sweep.DenseRects(points, area10(), rho, l)
		for _, order := range []ScanOrder{ScanLeftToRight, ScanRightToLeft} {
			for _, sq := range EDQ(points, area10(), l, rho, order) {
				if !pdr.Contains(sq.Center) {
					t.Fatalf("trial %d order %d: EDQ center %v not in PDR answer", trial, order, sq.Center)
				}
			}
		}
	}
}

// TestLocalDensityFigure1c reproduces Fig. 1(c): a region-dense square whose
// corner is locally empty. The dense-cell method reports the whole cell; PDR
// excludes the empty corner.
func TestLocalDensityFigure1c(t *testing.T) {
	// 12 objects packed into the left half of cell [4,5)x[4,5); the right
	// part is empty.
	var points []geom.Point
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 12; k++ {
		points = append(points, geom.Point{X: 4.0 + rng.Float64()*0.3, Y: 4.0 + rng.Float64()})
	}
	rho := 10.0 // cell has 12 objects/unit -> region-dense

	dc := DenseCells(points, area10(), 10, rho)
	corner := geom.Point{X: 4.95, Y: 4.95}
	if !dc.Contains(corner) {
		t.Fatal("dense-cell method must report the whole cell, including the sparse corner")
	}
	pdr := sweep.DenseRects(points, area10(), rho, 1)
	if pdr.Contains(corner) {
		t.Error("PDR must exclude the locally sparse corner (local density guarantee)")
	}
}

func TestEDQNonOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points := make([]geom.Point, 200)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	sqs := EDQ(points, area10(), 1.5, 2.0/(1.5*1.5), ScanLeftToRight)
	for i := range sqs {
		for j := i + 1; j < len(sqs); j++ {
			if sqs[i].Rect.Intersects(sqs[j].Rect) {
				t.Fatalf("EDQ squares %d and %d overlap: %v vs %v", i, j, sqs[i].Rect, sqs[j].Rect)
			}
		}
	}
	got, want := Region(sqs).Area(), float64(len(sqs))*1.5*1.5
	if len(sqs) > 0 && math.Abs(got-want) > 1e-9*want {
		t.Errorf("Region area %g, want %g (non-overlapping squares)", got, want)
	}
}

func TestDenseCellsDegenerate(t *testing.T) {
	if got := DenseCells(nil, geom.Rect{}, 4, 1); got != nil {
		t.Errorf("empty area: got %v", got)
	}
	if got := DenseCells([]geom.Point{{X: 1, Y: 1}}, area10(), 0, 1); got != nil {
		t.Errorf("m=0: got %v", got)
	}
	if got := EDQ(nil, area10(), 0, 1, ScanLeftToRight); got != nil {
		t.Errorf("l=0: got %v", got)
	}
	// Out-of-area points are ignored.
	pts := []geom.Point{{X: -5, Y: -5}, {X: 15, Y: 15}}
	if got := DenseCells(pts, area10(), 2, 0.0001); len(got) != 0 {
		t.Errorf("out-of-area points counted: %v", got)
	}
}
