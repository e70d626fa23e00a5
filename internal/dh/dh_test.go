package dh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func area1000() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func newHist(t *testing.T, m int, h motion.Tick) *Histogram {
	t.Helper()
	hist, err := New(Config{Area: area1000(), M: m, Horizon: h})
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

func randState(rng *rand.Rand, id int, ref motion.Tick) motion.State {
	return motion.State{
		ID:  motion.ObjectID(id),
		Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		Vel: geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1},
		Ref: ref,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{M: 10, Horizon: 5}); err == nil {
		t.Error("empty area must be rejected")
	}
	if _, err := New(Config{Area: area1000(), M: 0, Horizon: 5}); err == nil {
		t.Error("M=0 must be rejected")
	}
	if _, err := New(Config{Area: area1000(), M: 10, Horizon: -1}); err == nil {
		t.Error("negative horizon must be rejected")
	}
}

func TestCountsMatchBruteForce(t *testing.T) {
	h := newHist(t, 50, 90)
	rng := rand.New(rand.NewSource(1))
	const n = 500
	states := make([]motion.State, n)
	h.Advance(0)
	for i := range states {
		states[i] = randState(rng, i, 0)
		h.Insert(states[i])
	}
	for _, qt := range []motion.Tick{0, 45, 90} {
		for i := 0; i < 50; i += 7 {
			for j := 0; j < 50; j += 7 {
				want := 0
				for _, s := range states {
					p := s.PositionAt(qt)
					// Objects predicted outside the area do not exist at
					// that timestamp (package contract).
					if !area1000().Contains(p) {
						continue
					}
					if ci, cj := h.cellIndex(p); ci == i && cj == j {
						want++
					}
				}
				if got := h.Count(qt, i, j); got != want {
					t.Fatalf("qt=%d cell(%d,%d): count %d, want %d", qt, i, j, got, want)
				}
			}
		}
	}
}

func TestConservation(t *testing.T) {
	h := newHist(t, 20, 60)
	rng := rand.New(rand.NewSource(2))
	const n = 300
	h.Advance(0)
	states := make([]motion.State, n)
	for i := 0; i < n; i++ {
		states[i] = randState(rng, i, 0)
		h.Insert(states[i])
	}
	for _, qt := range []motion.Tick{0, 30, 60} {
		want := 0
		for _, s := range states {
			if area1000().Contains(s.PositionAt(qt)) {
				want++
			}
		}
		if got := h.Total(qt); got != want {
			t.Fatalf("Total(%d) = %d, want %d (in-area objects)", qt, got, want)
		}
	}
}

func TestDeleteRestoresCounts(t *testing.T) {
	h := newHist(t, 30, 40)
	rng := rand.New(rand.NewSource(3))
	h.Advance(0)
	base := make([]motion.State, 100)
	for i := range base {
		base[i] = randState(rng, i, 0)
		h.Insert(base[i])
	}
	snapshot := make([]int32, 30*30)
	copy(snapshot, h.slot(20))

	extra := randState(rng, 999, 0)
	h.Insert(extra)
	h.Delete(extra, 0)
	for idx, v := range h.slot(20) {
		if v != snapshot[idx] {
			t.Fatalf("slot 20 cell %d: %d != %d after insert+delete", idx, v, snapshot[idx])
		}
	}
}

// TestMoveIsDeleteThenInsert: Move's one pass leaves every counter of every
// slot exactly as Delete then Insert does — for re-reports that continue the
// old trajectory, turn, jump, leave the area or come back into it, and on a
// histogram no Advance has anchored yet.
func TestMoveIsDeleteThenInsert(t *testing.T) {
	move, pair := newHist(t, 40, 30), newHist(t, 40, 30)
	moved := func(s motion.State) motion.State {
		nw := s
		nw.Ref++
		nw.Pos = s.PositionAt(nw.Ref)
		return nw
	}
	first := motion.State{ID: 1, Pos: geom.Point{X: 10, Y: 10}, Vel: geom.Vec{X: 3}, Ref: 5}
	move.Move(first, 5, moved(first))
	pair.Delete(first, 5)
	pair.Insert(moved(first))
	sameHist(t, "unanchored", move, pair)

	rng := rand.New(rand.NewSource(9))
	cur := make([]motion.State, 300)
	for _, h := range []*Histogram{move, pair} {
		h.Advance(0)
	}
	for i := range cur {
		cur[i] = randState(rng, i, 0)
		move.Insert(cur[i])
		pair.Insert(cur[i])
	}
	for now := motion.Tick(1); now <= 40; now++ {
		move.Advance(now)
		pair.Advance(now)
		for k := 0; k < 60; k++ {
			i := rng.Intn(len(cur))
			nw := cur[i]
			nw.Ref, nw.Pos = now, cur[i].PositionAt(now)
			switch rng.Intn(4) {
			case 0: // a jump
				nw = randState(rng, i, now)
			case 1: // fast: leaves the area inside the horizon
				nw.Vel = geom.Vec{X: (rng.Float64() - 0.5) * 200, Y: (rng.Float64() - 0.5) * 200}
			case 2: // a turn
				nw.Vel = geom.Vec{X: -nw.Vel.Y, Y: nw.Vel.X}
			}
			move.Move(cur[i], now, nw)
			pair.Delete(cur[i], now)
			pair.Insert(nw)
			cur[i] = nw
		}
		sameHist(t, fmt.Sprintf("now=%d", now), move, pair)
	}
}

func sameHist(t *testing.T, label string, a, b *Histogram) {
	t.Helper()
	if a.base != b.base {
		t.Fatalf("%s: base %d != %d", label, a.base, b.base)
	}
	for k := range a.slots {
		if !slices.Equal(a.slots[k], b.slots[k]) {
			t.Fatalf("%s: slot %d differs", label, k)
		}
	}
}

func TestAdvanceRotation(t *testing.T) {
	h := newHist(t, 10, 5)
	h.Advance(0)
	s := motion.State{ID: 1, Pos: geom.Point{X: 500, Y: 500}, Ref: 0}
	h.Insert(s)
	if got := h.Total(5); got != 1 {
		t.Fatalf("Total(5) = %d, want 1", got)
	}
	h.Advance(3)
	// Window is now [3, 8]; timestamps 3..5 keep the old contribution,
	// 6..8 are fresh slots with zero counts.
	for qt := motion.Tick(3); qt <= 5; qt++ {
		if got := h.Total(qt); got != 1 {
			t.Fatalf("after advance, Total(%d) = %d, want 1", qt, got)
		}
	}
	for qt := motion.Tick(6); qt <= 8; qt++ {
		if got := h.Total(qt); got != 0 {
			t.Fatalf("after advance, Total(%d) = %d, want 0 (fresh slot)", qt, got)
		}
	}
	// Out-of-window queries return zero.
	if h.Total(2) != 0 || h.Total(9) != 0 {
		t.Error("out-of-window totals must be zero")
	}
}

func TestAdvanceFarJumpClearsEverything(t *testing.T) {
	h := newHist(t, 10, 5)
	h.Advance(0)
	h.Insert(motion.State{ID: 1, Pos: geom.Point{X: 1, Y: 1}, Ref: 0})
	h.Advance(100)
	for qt := motion.Tick(100); qt <= 105; qt++ {
		if got := h.Total(qt); got != 0 {
			t.Fatalf("Total(%d) = %d, want 0 after far jump", qt, got)
		}
	}
}

func TestUpdateCycleMaintainsWindow(t *testing.T) {
	// Simulate the real server loop: U=4, W=2, H=6. Every object re-reports
	// within U ticks; all queryable timestamps [now, now+W] must show the
	// full population.
	const U, W = 4, 2
	h := newHist(t, 15, U+W)
	rng := rand.New(rand.NewSource(4))
	const n = 120
	cur := make([]motion.State, n)
	h.Advance(0)
	for i := range cur {
		cur[i] = randState(rng, i, 0)
		h.Insert(cur[i])
	}
	due := make([]motion.Tick, n)
	for i := range due {
		due[i] = motion.Tick(1 + rng.Intn(U))
	}
	for now := motion.Tick(1); now <= 30; now++ {
		h.Advance(now)
		for i := 0; i < n; i++ {
			if now >= due[i] {
				h.Delete(cur[i], now)
				cur[i] = randState(rng, i, now)
				h.Insert(cur[i])
				due[i] = now + U
			}
		}
		for qt := now; qt <= now+W; qt++ {
			want := 0
			for i := 0; i < n; i++ {
				if area1000().Contains(cur[i].PositionAt(qt)) {
					want++
				}
			}
			if got := h.Total(qt); got != want {
				t.Fatalf("now=%d qt=%d: Total = %d, want %d (in-area)", now, qt, got, want)
			}
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	h := newHist(t, 100, 90)
	want := 91 * 100 * 100 * 4
	if got := h.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestCellRectTiling(t *testing.T) {
	h := newHist(t, 4, 0)
	var g geom.Region
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			g.Add(h.CellRect(i, j))
		}
	}
	if got, want := g.Area(), area1000().Area(); got != want {
		t.Errorf("cells tile area %g, want %g", got, want)
	}
}

func TestCellIndexClamping(t *testing.T) {
	h := newHist(t, 10, 0)
	i, j := h.cellIndex(geom.Point{X: -5, Y: 2000})
	if i != 0 || j != 9 {
		t.Errorf("cellIndex clamped to (%d,%d), want (0,9)", i, j)
	}
	i, j = h.cellIndex(geom.Point{X: 1000, Y: 999.999})
	if i != 9 || j != 9 {
		t.Errorf("cellIndex(border) = (%d,%d), want (9,9)", i, j)
	}
}
