package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func TestRouterPartitionCoversArea(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	for _, n := range []int{1, 2, 3, 7, 8, 64} {
		r, err := newRouter(area, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.starts[0] != 0 || r.starts[n] != 4096 {
			t.Fatalf("n=%d: range [%d, %d) does not cover the grid", n, r.starts[0], r.starts[n])
		}
		counts := make([]int, n)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			s := r.Owner(p)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: owner %d out of range", n, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			// Contiguous Morton ranges of a uniform grid under uniform load:
			// every shard must see a meaningful share.
			if c == 0 {
				t.Fatalf("n=%d: shard %d owns no samples", n, s)
			}
		}
		if got := r.Intersecting(area); got != allMask(n) {
			t.Fatalf("n=%d: full-area scatter mask %b, want %b", n, got, allMask(n))
		}
	}
}

func allMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// TestRouterIntersectingExact cross-checks the BIGMIN-based shard-window
// test against a brute-force scan of the grid cells.
func TestRouterIntersectingExact(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 8, 13} {
		r, err := newRouter(area, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			x := rng.Float64()*1200 - 100
			y := rng.Float64()*1200 - 100
			w := geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*400, MaxY: y + rng.Float64()*400}
			got := r.Intersecting(w)
			// Brute force: a shard is needed iff one of its half-open cells
			// [min, min+edge) intersects the closed window — half-open to
			// match cellOf's point-ownership convention.
			var want uint64
			for cx := uint32(0); cx < r.cells; cx++ {
				for cy := uint32(0); cy < r.cells; cy++ {
					minX := area.MinX + float64(cx)*r.cellW
					minY := area.MinY + float64(cy)*r.cellH
					if minX > w.MaxX || minX+r.cellW <= w.MinX || minY > w.MaxY || minY+r.cellH <= w.MinY {
						continue
					}
					want |= 1 << uint(r.shardOfCode(interleaveCell(cx, cy)))
				}
			}
			// The router may be conservative at cell boundaries (closed
			// bounds both ways here, so they should be identical) but must
			// never miss a shard the brute force needs.
			if got&want != want {
				t.Fatalf("n=%d window %v: mask %b misses shards in %b", n, w, got, want)
			}
			if got != want {
				t.Fatalf("n=%d window %v: mask %b != brute force %b", n, w, got, want)
			}
		}
	}
}

func interleaveCell(x, y uint32) uint64 {
	var code uint64
	for b := 0; b < 32; b++ {
		code |= uint64(x>>uint(b)&1) << uint(2*b)
		code |= uint64(y>>uint(b)&1) << uint(2*b+1)
	}
	return code
}

// TestOwnersOfCoverInvariant is the replica-coverage safety property behind
// scatter exactness: for any state and any queryable timestamp, if the
// predicted position is inside the area, the shard owning that position is
// in the registration mask (primary or replica).
func TestOwnersOfCoverInvariant(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 8, 64} {
		r, err := newRouter(area, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			st := motion.State{
				ID:  motion.ObjectID(i),
				Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				Vel: geom.Vec{X: (rng.Float64() - 0.5) * 30, Y: (rng.Float64() - 0.5) * 30},
				Ref: motion.Tick(rng.Intn(20)),
			}
			now := motion.Tick(rng.Intn(15)) // sometimes before Ref
			primary, replicas := r.OwnersOf(st, now)
			mask := replicas | 1<<uint(primary)
			for qt := now; qt <= now+200; qt++ {
				p := st.PositionAt(qt)
				if !area.Contains(p) {
					continue
				}
				owner := r.Owner(p)
				if mask&(1<<uint(owner)) == 0 {
					t.Fatalf("n=%d state %+v now=%d: position %v at t=%d owned by shard %d outside mask %b",
						n, st, now, p, qt, owner, mask)
				}
			}
			if n > 1 && replicas != 0 && bits.OnesCount64(mask) > n {
				t.Fatalf("mask %b wider than shard count", mask)
			}
		}
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	if _, err := newRouter(area, 0); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := newRouter(area, 65); err == nil {
		t.Fatal("accepted 65 shards")
	}
	if _, err := newRouter(geom.Rect{}, 2); err == nil {
		t.Fatal("accepted empty area")
	}
	if _, err := NewServer(streamConfig(-1, 1)); err == nil {
		t.Fatal("engine accepted -1 shards")
	}
	if _, err := NewServer(streamConfig(65, 1)); err == nil {
		t.Fatal("engine accepted 65 shards")
	}
}
