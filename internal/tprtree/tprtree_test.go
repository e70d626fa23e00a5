package tprtree

import (
	"math/rand"
	"sort"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

func newTestTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(Config{Pool: storage.NewPool(0), Horizon: 90})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomState(rng *rand.Rand, id int, ref motion.Tick) motion.State {
	return motion.State{
		ID:  motion.ObjectID(id),
		Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		Vel: geom.Vec{X: rng.Float64()*3 - 1.5, Y: rng.Float64()*3 - 1.5},
		Ref: ref,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Horizon: 10}); err == nil {
		t.Error("nil pool must be rejected")
	}
	if _, err := New(Config{Pool: storage.NewPool(0)}); err == nil {
		t.Error("zero horizon must be rejected")
	}
	if _, err := New(Config{Pool: storage.NewPool(0), Horizon: 10, PageSize: 64}); err == nil {
		t.Error("tiny page size must be rejected")
	}
}

func TestInsertAndSearchExhaustive(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("expected multi-level tree for %d objects, height = %d", n, tr.Height())
	}

	for _, qt := range []motion.Tick{0, 30, 90} {
		for trial := 0; trial < 30; trial++ {
			r := geom.Rect{
				MinX: rng.Float64() * 900, MinY: rng.Float64() * 900,
			}
			r.MaxX = r.MinX + 20 + rng.Float64()*150
			r.MaxY = r.MinY + 20 + rng.Float64()*150
			got := tr.RangeQuery(r, qt)
			want := 0
			for _, s := range states {
				if r.ContainsClosed(s.PositionAt(qt)) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("qt=%d trial %d: RangeQuery found %d, want %d", qt, trial, len(got), want)
			}
			for _, s := range got {
				if !r.ContainsClosed(s.PositionAt(qt)) {
					t.Fatalf("qt=%d: false positive %v", qt, s)
				}
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		tr.Insert(randomState(rng, i, 0))
	}
	visits := 0
	tr.Search(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 0, func(motion.State) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Errorf("early stop visited %d, want 10", visits)
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(3))
	const n = 1200
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	// Delete a random half.
	perm := rng.Perm(n)
	deleted := map[motion.ObjectID]bool{}
	for _, i := range perm[:n/2] {
		if !tr.Delete(states[i]) {
			t.Fatalf("Delete(%d) not found", states[i].ID)
		}
		deleted[states[i].ID] = true
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deleting again must fail.
	if tr.Delete(states[perm[0]]) {
		t.Error("double delete succeeded")
	}
	// Remaining objects must all be findable.
	all := tr.All()
	if len(all) != n/2 {
		t.Fatalf("All = %d entries, want %d", len(all), n/2)
	}
	for _, s := range all {
		if deleted[s.ID] {
			t.Fatalf("deleted object %d still present", s.ID)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(4))
	const n = 600
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	for _, i := range rng.Perm(n) {
		if !tr.Delete(states[i]) {
			t.Fatalf("Delete(%d) failed", states[i].ID)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all, want 0", tr.Len())
	}
	if got := tr.RangeQuery(geom.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, 0); len(got) != 0 {
		t.Fatalf("empty tree returned %d results", len(got))
	}
}

func TestUpdateWorkload(t *testing.T) {
	// Interleaved deletes+inserts with advancing time, as the PDR server
	// produces them; validate invariants and query correctness throughout.
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(5))
	const n = 800
	cur := make([]motion.State, n)
	for i := range cur {
		cur[i] = randomState(rng, i, 0)
		tr.Insert(cur[i])
	}
	for now := motion.Tick(1); now <= 40; now++ {
		tr.SetNow(now)
		for k := 0; k < 60; k++ {
			i := rng.Intn(n)
			if !tr.Delete(cur[i]) {
				t.Fatalf("now=%d: Delete(%d) failed", now, cur[i].ID)
			}
			cur[i] = randomState(rng, i, now)
			tr.Insert(cur[i])
		}
		if now%10 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("now=%d: %v", now, err)
			}
			qt := now + motion.Tick(rng.Intn(90))
			r := geom.Rect{MinX: 200, MinY: 200, MaxX: 600, MaxY: 600}
			got := tr.RangeQuery(r, qt)
			want := 0
			for _, s := range cur {
				if r.ContainsClosed(s.PositionAt(qt)) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("now=%d qt=%d: got %d, want %d", now, qt, len(got), want)
			}
		}
	}
}

func TestQuickTreeMatchesLinearScan(t *testing.T) {
	// Randomized end-to-end equivalence against a linear scan oracle.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree(t)
		n := 100 + rng.Intn(400)
		states := make([]motion.State, n)
		for i := range states {
			states[i] = randomState(rng, i, motion.Tick(rng.Intn(5)))
			tr.Insert(states[i])
		}
		qt := motion.Tick(5 + rng.Intn(85))
		r := geom.Rect{MinX: rng.Float64() * 800, MinY: rng.Float64() * 800}
		r.MaxX = r.MinX + rng.Float64()*300
		r.MaxY = r.MinY + rng.Float64()*300

		var wantIDs, gotIDs []int
		for _, s := range states {
			if r.ContainsClosed(s.PositionAt(qt)) {
				wantIDs = append(wantIDs, int(s.ID))
			}
		}
		for _, s := range tr.RangeQuery(r, qt) {
			gotIDs = append(gotIDs, int(s.ID))
		}
		sort.Ints(wantIDs)
		sort.Ints(gotIDs)
		if len(wantIDs) != len(gotIDs) {
			t.Fatalf("seed %d: got %d ids, want %d", seed, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if wantIDs[i] != gotIDs[i] {
				t.Fatalf("seed %d: id mismatch at %d: %d vs %d", seed, i, gotIDs[i], wantIDs[i])
			}
		}
	}
}

func TestBufferAccounting(t *testing.T) {
	pool := storage.NewPool(4) // tiny buffer to force eviction traffic
	tr, err := New(Config{Pool: pool, Horizon: 90})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		tr.Insert(randomState(rng, i, 0))
	}
	before := pool.Stats()
	tr.RangeQuery(geom.Rect{MinX: 0, MinY: 0, MaxX: 200, MaxY: 200}, 30)
	st := pool.Stats().Sub(before)
	if st.Reads == 0 {
		t.Error("query over a cold tiny buffer must incur physical reads")
	}
	// Tree must remain correct under heavy eviction.
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d, want 3000", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetNowMonotone(t *testing.T) {
	tr := newTestTree(t)
	tr.SetNow(10)
	tr.SetNow(5) // must not move backwards
	if tr.Now() != 10 {
		t.Errorf("Now = %d, want 10", tr.Now())
	}
}

func TestIntegArea(t *testing.T) {
	// A static unit square has integrated area T over [0, T].
	e := entry{hi: [2]float64{1, 1}}
	if got := e.integArea(0, 10); got != 10 {
		t.Errorf("static integArea = %g, want 10", got)
	}
	// A degenerate point growing at dv=1 in both dims: area(t) = t^2,
	// integral over [0,T] = T^3/3.
	g := entry{vhi: [2]float64{1, 1}}
	if got, want := g.integArea(0, 3), 9.0; got != want {
		t.Errorf("growing integArea = %g, want %g", got, want)
	}
	if got := e.integArea(5, 4); got != 0 {
		t.Errorf("reversed interval integArea = %g, want 0", got)
	}
	if got := e.integArea(5, 5); got != 1 {
		t.Errorf("instant integArea = %g, want area 1", got)
	}
}

func TestHeightShrinksOnMassDeletion(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	peak := tr.Height()
	if peak < 2 {
		t.Fatalf("expected multi-level tree, height %d", peak)
	}
	for _, i := range rng.Perm(n)[:n-10] {
		if !tr.Delete(states[i]) {
			t.Fatalf("Delete(%d) failed", states[i].ID)
		}
	}
	if tr.Height() >= peak {
		t.Errorf("height did not shrink: %d -> %d with 10 objects left", peak, tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPageAccountingAfterChurn(t *testing.T) {
	pool := storage.NewPool(0)
	tr, err := New(Config{Pool: pool, Horizon: 90})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	states := make([]motion.State, 2000)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	for _, i := range rng.Perm(2000) {
		if !tr.Delete(states[i]) {
			t.Fatalf("Delete(%d) failed", states[i].ID)
		}
	}
	// Only the root page should remain allocated.
	if pool.NumPages() != 1 {
		t.Errorf("%d pages allocated after deleting everything, want 1 (root)", pool.NumPages())
	}
}
