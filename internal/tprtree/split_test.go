package tprtree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

// searchWindows searches the windows with Split and SearchSubtree — the
// subtrees concurrently — and returns the IDs of the movements inside some
// window at qt, sorted, and the pages it read.
func searchWindows(tr *Tree, pool *storage.Pool, windows []geom.Rect, qt motion.Tick) ([]motion.ObjectID, int64) {
	overlaps := func(b geom.Rect) bool {
		for _, w := range windows {
			if b.MinX <= w.MaxX && b.MaxX >= w.MinX && b.MinY <= w.MaxY && b.MaxY >= w.MinY {
				return true
			}
		}
		return false
	}
	before := pool.Stats()
	subs := tr.Split(nil, qt, overlaps)
	found := make([][]motion.ObjectID, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.SearchSubtree(sub, qt, overlaps, func(st motion.State) {
				p := st.PositionAt(qt)
				if overlaps(geom.NewRect(p.X, p.Y, p.X, p.Y)) {
					found[i] = append(found[i], st.ID)
				}
			})
		}()
	}
	wg.Wait()
	after := pool.Stats()
	var ids []motion.ObjectID
	for _, f := range found {
		ids = append(ids, f...)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, after.Hits + after.Reads - before.Hits - before.Reads
}

// TestSplitSearchesEveryWindowOnce: a search split at the root's children
// finds exactly the movements Search finds window by window (each once,
// however many windows hold it), and reads each page at most once — every
// page exactly once when the windows cover the plane.
func TestSplitSearchesEveryWindowOnce(t *testing.T) {
	pool := storage.NewPool(0)
	tr, err := New(Config{Pool: pool, Horizon: 90})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		tr.Insert(randomState(rng, i, 0))
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the split needs subtrees below the root", tr.Height())
	}
	for trial := 0; trial < 20; trial++ {
		qt := motion.Tick(rng.Intn(91))
		windows := make([]geom.Rect, 1+rng.Intn(6))
		for i := range windows {
			x, y := rng.Float64()*900, rng.Float64()*900
			windows[i] = geom.NewRect(x, y, x+20+rng.Float64()*200, y+20+rng.Float64()*200)
		}
		want := map[motion.ObjectID]bool{}
		var perWindow int64
		for _, w := range windows {
			before := pool.Stats()
			for _, st := range tr.RangeQuery(w, qt) {
				want[st.ID] = true
			}
			after := pool.Stats()
			perWindow += after.Hits + after.Reads - before.Hits - before.Reads
		}
		got, reads := searchWindows(tr, pool, windows, qt)
		if len(got) != len(want) {
			t.Fatalf("trial %d: found %d movements, the windows hold %d", trial, len(got), len(want))
		}
		for i, id := range got {
			if !want[id] || i > 0 && got[i-1] == id {
				t.Fatalf("trial %d: movement %d found wrongly or twice", trial, id)
			}
		}
		if reads > perWindow || reads > int64(pool.NumPages()) {
			t.Fatalf("trial %d: %d page reads, %d window by window, %d pages", trial, reads, perWindow, pool.NumPages())
		}
	}
	quadrants := []geom.Rect{
		geom.NewRect(-100, -100, 600, 600), geom.NewRect(400, -100, 1100, 600),
		geom.NewRect(-100, 400, 600, 1100), geom.NewRect(400, 400, 1100, 1100),
	}
	got, reads := searchWindows(tr, pool, quadrants, 0)
	if len(got) != tr.Len() || reads != int64(pool.NumPages()) {
		t.Fatalf("covering windows: %d of %d movements in %d reads of %d pages", len(got), tr.Len(), reads, pool.NumPages())
	}
}

// TestSplitOfALeafRoot: a tree that is one leaf splits into the root itself.
func TestSplitOfALeafRoot(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		tr.Insert(randomState(rng, i, 0))
	}
	all := func(geom.Rect) bool { return true }
	subs := tr.Split(nil, 0, all)
	n := 0
	for _, sub := range subs {
		tr.SearchSubtree(sub, 0, all, func(motion.State) { n++ })
	}
	if len(subs) != 1 || n != 10 {
		t.Fatalf("%d subtrees holding %d movements, want the root holding 10", len(subs), n)
	}
}
