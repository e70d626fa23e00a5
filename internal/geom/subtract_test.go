package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceSubtract is Subtract as it was before the cutter grid: every
// rectangle of h cuts every piece left so far, in h's order. Subtract must
// return its answer float bit for float bit.
func referenceSubtract(g, h Region) Region {
	pieces := make(Region, 0, len(g))
	for _, r := range g {
		if !r.IsEmpty() {
			pieces = append(pieces, r)
		}
	}
	for _, b := range h {
		if b.IsEmpty() || len(pieces) == 0 {
			continue
		}
		next := make(Region, 0, len(pieces))
		for _, p := range pieces {
			next = append(next, SubtractRect(p, b)...)
		}
		pieces = next
	}
	return coalesce(pieces)
}

// sameBits reports whether a and b hold the same rectangles in the same
// order, compared as float bits.
func sameBits(a, b Region) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i, r := range a {
		q := b[i]
		if bits(r.MinX) != bits(q.MinX) || bits(r.MinY) != bits(q.MinY) || bits(r.MaxX) != bits(q.MaxX) || bits(r.MaxY) != bits(q.MaxY) {
			return false
		}
	}
	return true
}

// latticeRegion is a seeded half-full lattice of side×side unit cells
// shifted by off on both axes: about side²/2 disjoint rectangles.
func latticeRegion(seed int64, side int, off float64) Region {
	rng := rand.New(rand.NewSource(seed))
	var g Region
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if rng.Intn(2) == 0 {
				g.Add(Rect{MinX: float64(x) + off, MinY: float64(y) + off, MaxX: float64(x+1) + off, MaxY: float64(y+1) + off})
			}
		}
	}
	return g
}

func TestSubtractRectCases(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	cases := []struct {
		name     string
		s        Rect
		wantArea float64
	}{
		{"disjoint", Rect{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12}, 16},
		{"covering", Rect{MinX: -1, MinY: -1, MaxX: 5, MaxY: 5}, 0},
		{"center hole", Rect{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}, 12},
		{"left half", Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 4}, 8},
		{"corner", Rect{MinX: 3, MinY: 3, MaxX: 5, MaxY: 5}, 15},
		{"identical", r, 0},
	}
	for _, c := range cases {
		got := SubtractRect(r, c.s)
		if a := got.Area(); math.Abs(a-c.wantArea) > 1e-9 {
			t.Errorf("%s: area %g, want %g", c.name, a, c.wantArea)
		}
		// Pieces must be disjoint: union area equals summed areas.
		var sum float64
		for _, p := range got {
			sum += p.Area()
		}
		if math.Abs(sum-got.Area()) > 1e-9 {
			t.Errorf("%s: pieces overlap (sum %g, union %g)", c.name, sum, got.Area())
		}
	}
}

func TestSubtractRegions(t *testing.T) {
	g := Region{{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}}
	h := Region{
		{MinX: 0, MinY: 0, MaxX: 5, MaxY: 10},
		{MinX: 5, MinY: 0, MaxX: 10, MaxY: 5},
	}
	got := Subtract(g, h)
	want := Rect{MinX: 5, MinY: 5, MaxX: 10, MaxY: 10}
	if len(got) != 1 || got[0] != want {
		t.Errorf("Subtract = %v, want [%v]", got, want)
	}
	if len(Subtract(nil, h)) != 0 {
		t.Error("empty minuend must stay empty")
	}
	if got := Subtract(g, nil); math.Abs(got.Area()-100) > 1e-9 {
		t.Error("empty subtrahend must keep g")
	}
}

func TestQuickSubtractSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) Region {
			g := make(Region, n)
			for i := range g {
				x, y := rng.Float64()*20, rng.Float64()*20
				g[i] = Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*8, MaxY: y + rng.Float64()*8}
			}
			return g
		}
		g, h := mk(1+rng.Intn(5)), mk(1+rng.Intn(5))
		d := Subtract(g, h)
		// Area identity.
		if math.Abs(d.Area()-g.DifferenceArea(h)) > 1e-6 {
			return false
		}
		// Point-level semantics on samples.
		for k := 0; k < 150; k++ {
			p := Point{X: rng.Float64() * 28, Y: rng.Float64() * 28}
			want := g.Contains(p) && !h.Contains(p)
			if d.Contains(p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSubtractMatchesReferenceOnLattices(t *testing.T) {
	g, h := latticeRegion(1, 40, 0), latticeRegion(2, 40, 0.5)
	cases := []struct {
		name string
		a, b Region
	}{
		{"g minus h", g, h},
		{"h minus g", h, g},
		{"coalesced h", g, coalesce(h)},
		{"one wide cutter", g, append(Region{{MinX: 3.25, MinY: -1, MaxX: 30.5, MaxY: 50}}, h...)},
		{"minuend outside the cutters' bounds", Region{{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}}, h},
		{"infinite minuend", Region{{MinX: math.Inf(-1), MinY: 2, MaxX: math.Inf(1), MaxY: 3}}, h},
		{"infinite cutter", g, append(Region{{MinX: math.Inf(-1), MinY: 7, MaxX: 5, MaxY: 8}}, h...)},
	}
	for _, tc := range cases {
		got, want := Subtract(tc.a, tc.b), referenceSubtract(tc.a, tc.b)
		if !sameBits(got, want) {
			t.Errorf("%s: %d rectangles, reference %d (or a float differs)", tc.name, len(got), len(want))
		}
	}
}

// BenchmarkSubtract diffs two seeded lattice regions of about 8k unit cells
// each, offset by half a cell, both ways: the shape of a standing query's
// change between two ticks.
func BenchmarkSubtract(b *testing.B) {
	op := subtractOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// subtractOp is BenchmarkSubtract's call.
func subtractOp() func() {
	g, h := latticeRegion(1, 128, 0), latticeRegion(2, 128, 0.5)
	return func() {
		Subtract(g, h)
		Subtract(h, g)
	}
}

// TestSubtractAllocs pins BenchmarkSubtract at 66 allocations a call: the
// cutter grids, the piece buffers and the answers.
func TestSubtractAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, subtractOp()); n > 66 {
		t.Errorf("BenchmarkSubtract: %v allocs/op, pinned at 66", n)
	}
}
