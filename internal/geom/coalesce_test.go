package geom

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// coalesce is CoalesceInPlace on a copy, for tests that read their input
// again afterwards.
func coalesce(g Region) Region { return CoalesceInPlace(slices.Clone(g)) }

func TestCoalesceRows(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 1, MinY: 0, MaxX: 2, MaxY: 1},
		{MinX: 2, MinY: 0, MaxX: 3, MaxY: 1},
	}
	c := coalesce(g)
	if len(c) != 1 {
		t.Fatalf("coalesced to %d rects, want 1", len(c))
	}
	if c[0] != (Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 1}) {
		t.Errorf("coalesced rect %v", c[0])
	}
}

func TestCoalesceColumns(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1},
		{MinX: 0, MinY: 1, MaxX: 2, MaxY: 2},
		{MinX: 0, MinY: 2, MaxX: 2, MaxY: 3},
	}
	c := coalesce(g)
	if len(c) != 1 {
		t.Fatalf("coalesced to %d rects, want 1", len(c))
	}
	if got := c.Area(); got != 6 {
		t.Errorf("area %g, want 6", got)
	}
}

func TestCoalesceGrid(t *testing.T) {
	// A full 4x4 grid of unit cells collapses to one rect.
	var g Region
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			g.Add(Rect{MinX: float64(i), MinY: float64(j), MaxX: float64(i + 1), MaxY: float64(j + 1)})
		}
	}
	c := coalesce(g)
	if len(c) != 1 {
		t.Fatalf("grid coalesced to %d rects, want 1", len(c))
	}
	if got := c.Area(); got != 16 {
		t.Errorf("area %g, want 16", got)
	}
}

func TestCoalesceKeepsDisjoint(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},
	}
	if c := coalesce(g); len(c) != 2 {
		t.Fatalf("disjoint rects merged: %v", c)
	}
}

func TestCoalesceDropsEmpty(t *testing.T) {
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 3, MinY: 3, MaxX: 3, MaxY: 9},
	}
	c := coalesce(g)
	if len(c) != 1 {
		t.Fatalf("got %d rects, want 1", len(c))
	}
	if len(coalesce(nil)) != 0 {
		t.Error("nil region must coalesce to empty")
	}
}

func TestQuickCoalescePreservesCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a region from random cells of a grid (guaranteed
		// non-overlapping, heavily mergeable).
		var g Region
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if rng.Intn(2) == 0 {
					g.Add(Rect{MinX: float64(i), MinY: float64(j), MaxX: float64(i + 1), MaxY: float64(j + 1)})
				}
			}
		}
		c := coalesce(g)
		if len(c) > len(g) {
			return false
		}
		if math.Abs(c.Area()-g.Area()) > 1e-9 {
			return false
		}
		// Point-level equality on a sample.
		for k := 0; k < 200; k++ {
			p := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			if g.Contains(p) != c.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoalesce5000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var g Region
	for i := 0; i < 5000; i++ {
		x, y := float64(rng.Intn(100)), float64(rng.Intn(100))
		g.Add(Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coalesce(g)
	}
}

func TestCoalesceOverlappingStillCovers(t *testing.T) {
	// Overlapping inputs: the union may not reach minimal form but coverage
	// must be preserved.
	g := Region{
		{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3},
		{MinX: 1, MinY: 1, MaxX: 4, MaxY: 4},
		{MinX: 2, MinY: 0, MaxX: 5, MaxY: 3},
	}
	c := coalesce(g)
	if math.Abs(c.Area()-g.Area()) > 1e-9 {
		t.Fatalf("area changed: %g vs %g", c.Area(), g.Area())
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 500; k++ {
		p := Point{X: rng.Float64() * 6, Y: rng.Float64() * 5}
		if g.Contains(p) != c.Contains(p) {
			t.Fatalf("coverage changed at %v", p)
		}
	}
}

// TestCoalesceInPlaceMatchesCoalesce checks that CoalesceInPlace's answer
// depends on the input's rectangles alone — a copy coalesces to the same
// rectangles — and that it reuses the input's backing array.
func TestCoalesceInPlaceMatchesCoalesce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		g := make(Region, 0, n)
		for i := 0; i < n; i++ {
			x := float64(rng.Intn(10))
			y := float64(rng.Intn(10))
			w := float64(rng.Intn(3)) // empties included on purpose
			h := float64(rng.Intn(3))
			g = append(g, NewRect(x, y, x+w, y+h))
		}
		want := coalesce(g)
		got := CoalesceInPlace(g)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: CoalesceInPlace = %v, want %v", trial, got, want)
		}
		if len(g) > 0 && len(got) > 0 && &got[0] != &g[0] {
			t.Fatalf("trial %d: CoalesceInPlace reallocated instead of reusing the input", trial)
		}
	}
}

// TestCoalesceInPlaceAllocationFree pins the in-place variant at zero
// allocations.
func TestCoalesceInPlaceAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	g := make(Region, 0, 64)
	fill := func() {
		g = g[:0]
		for i := 0; i < 16; i++ {
			x := float64(i % 4)
			g = append(g, NewRect(x, float64(i/4), x+1, float64(i/4)+1))
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		fill()
		g = CoalesceInPlace(g)
	}); n != 0 {
		t.Errorf("CoalesceInPlace allocates %v per run, want 0", n)
	}
}

// disjointRegion is an answer-shaped region: cells of a lattice, some whole
// and some cut into a few pieces along one axis, in random order — disjoint,
// with many shared edges for both passes to merge across.
func disjointRegion(rng *rand.Rand, n int) Region {
	var g Region
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			x, y := float64(i)*1.5, float64(j)*0.7
			switch cut := 1 + rng.Intn(3); rng.Intn(3) {
			case 0:
				g.Add(NewRect(x, y, x+1.5, y+0.7))
			case 1:
				for k := 0; k < cut; k++ {
					g.Add(NewRect(x+1.5*float64(k)/float64(cut), y, x+1.5*float64(k+1)/float64(cut), y+0.7))
				}
			default:
				for k := 0; k < cut; k++ {
					g.Add(NewRect(x, y+0.7*float64(k)/float64(cut), x+1.5, y+0.7*float64(k+1)/float64(cut)))
				}
			}
		}
	}
	rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
	return g
}

// inline and spawn are the two ways CoalesceSplit's forEach may run the
// ranges: one after the other on the caller, or all at once.
func inline(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func spawn(n int, fn func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			fn(i)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// TestCoalesceSplitMatchesInPlace: on disjoint rectangles the split union is
// CoalesceInPlace's, rectangle for rectangle and in order, at every split
// count and however its ranges run; on overlapping ones it covers the same
// points.
func TestCoalesceSplitMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := disjointRegion(rng, 2+rng.Intn(40))
		g = append(g, NewRect(0, 0, 0, 5)) // an empty one, dropped by both
		want := CoalesceInPlace(append(Region(nil), g...))
		for n := 1; n <= 5; n++ {
			for name, forEach := range map[string]func(int, func(int)){"inline": inline, "spawn": spawn} {
				got := CoalesceSplit(append(Region(nil), g...), n, forEach)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, n=%d, %s: %d rectangles, CoalesceInPlace %d, or others",
						trial, n, name, len(got), len(want))
				}
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		var g Region
		for i := 0; i < 200; i++ {
			x, y := float64(rng.Intn(20)), float64(rng.Intn(20))
			g.Add(NewRect(x, y, x+1+float64(rng.Intn(4)), y+1+float64(rng.Intn(4))))
		}
		got := CoalesceSplit(append(Region(nil), g...), 3, spawn)
		if d := got.DifferenceArea(g) + g.DifferenceArea(got); d != 0 {
			t.Fatalf("trial %d: overlapping input, the split union differs by area %g", trial, d)
		}
	}
}

// coalesceSplitOp is BenchmarkCoalesceSplit's call: an exact answer's final
// union — ~9k disjoint rectangles — split two ways on the caller.
func coalesceSplitOp() func() {
	g := disjointRegion(rand.New(rand.NewSource(1)), 75)
	work := make(Region, len(g))
	return func() {
		copy(work, g)
		CoalesceSplit(work, 2, inline)
	}
}

func BenchmarkCoalesceSplit(b *testing.B) {
	op := coalesceSplitOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestCoalesceSplitAllocs pins BenchmarkCoalesceSplit at 2 allocations a
// call: the scratch is pooled, so what it allocates is the closures that hand
// the ranges out. The mallocs of 200 calls are counted at the test's
// GOMAXPROCS, as -benchmem counts them: the scratch pool keeps a cache per P,
// and the engine runs this union on its worker pool.
func TestCoalesceSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	const runs = 200
	op := coalesceSplitOp()
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / runs; n > 2 {
		t.Errorf("BenchmarkCoalesceSplit: %d allocs/op, pinned at 2", n)
	}
}
