package tprtree

import (
	"math/rand"
	"slices"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

// loadedTree bulk-loads n random movements into a tree over its own pool.
func loadedTree(t *testing.T, n int, seed int64) (*Tree, *storage.Pool, []motion.State) {
	t.Helper()
	pool := storage.NewPool(0)
	tr, err := New(Config{Pool: pool, Horizon: 90})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	if err := tr.BulkLoad(slices.Clone(states)); err != nil {
		t.Fatal(err)
	}
	return tr, pool, states
}

// holds reports whether the tree stores exactly the movement s for s's ID.
func holds(tr *Tree, s motion.State) bool {
	for _, got := range tr.All() {
		if got.ID == s.ID {
			return got == s
		}
	}
	return false
}

// TestUpdateInPlace: a re-report that continues the old trajectory fits its
// leaf, so it is rewritten there: no page is allocated or freed, and the
// tree holds the new movement, not the old one.
func TestUpdateInPlace(t *testing.T) {
	tr, pool, states := loadedTree(t, 2000, 1)
	if tr.Height() < 2 {
		t.Fatalf("height %d, want internal levels", tr.Height())
	}
	tr.SetNow(3)
	pages := pool.NumPages()
	for _, i := range []int{0, 777, 1999} {
		old := states[i]
		nw := old
		nw.Ref = 3
		nw.Pos = old.PositionAt(3)
		found, inPlace := tr.Update(old, nw)
		if !found || !inPlace {
			t.Fatalf("object %d: Update = %v, %v, want found in place", old.ID, found, inPlace)
		}
		if !holds(tr, nw) {
			t.Fatalf("object %d: the tree does not hold the new movement", old.ID)
		}
	}
	if tr.Len() != len(states) || pool.NumPages() != pages {
		t.Fatalf("Len %d, %d pages; want %d and %d", tr.Len(), pool.NumPages(), len(states), pages)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateFarAway: a re-report far outside its leaf's bound is deleted and
// re-inserted, and is found where it now is; in a tree that is one leaf, the
// same re-report is rewritten in place, since the root leaf bounds anything.
func TestUpdateFarAway(t *testing.T) {
	far := func(s motion.State) motion.State {
		s.Pos = geom.Point{X: 5000, Y: -4000}
		s.Vel = geom.Vec{X: 40, Y: -40}
		return s
	}
	tr, _, states := loadedTree(t, 2000, 2)
	nw := far(states[42])
	if found, inPlace := tr.Update(states[42], nw); !found || inPlace {
		t.Fatalf("Update = %v, %v, want found and re-inserted", found, inPlace)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(states) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(states))
	}
	at := nw.PositionAt(10)
	got := tr.RangeQuery(geom.NewRect(at.X-1, at.Y-1, at.X+1, at.Y+1), 10)
	if len(got) != 1 || got[0] != nw {
		t.Fatalf("search at the new position found %v, want the new movement", got)
	}

	small, _, few := loadedTree(t, 10, 3)
	if found, inPlace := small.Update(few[4], far(few[4])); !found || !inPlace {
		t.Fatalf("root leaf: Update = %v, %v, want found in place", found, inPlace)
	}
	if !holds(small, far(few[4])) {
		t.Fatal("root leaf: the tree does not hold the new movement")
	}
}

// TestUpdateUnknownChangesNothing: an old movement the tree does not hold —
// an unknown ID, or a known ID with another trajectory — is not found, and
// the tree is left exactly as it was.
func TestUpdateUnknownChangesNothing(t *testing.T) {
	tr, pool, states := loadedTree(t, 2000, 4)
	before := tr.All()
	pages := pool.NumPages()
	unknown := states[7]
	unknown.ID = 1 << 40
	moved := states[7]
	moved.Vel.X += 0.5
	for _, old := range []motion.State{unknown, moved} {
		nw := old
		nw.Pos.X++
		if found, inPlace := tr.Update(old, nw); found || inPlace {
			t.Fatalf("Update of %+v = %v, %v, want not found", old, found, inPlace)
		}
	}
	if !slices.Equal(tr.All(), before) || tr.Len() != len(states) || pool.NumPages() != pages {
		t.Fatal("a failed Update changed the tree")
	}
}

// TestUpdateMatchesDeleteInsert: a stream of re-reports applied by Update
// leaves the tree valid and answering every range query as Delete then
// Insert does.
func TestUpdateMatchesDeleteInsert(t *testing.T) {
	upd, _, cur := loadedTree(t, 3000, 5)
	ref, _, _ := loadedTree(t, 3000, 5)
	rng := rand.New(rand.NewSource(6))
	inPlace := 0
	for now := motion.Tick(1); now <= 30; now++ {
		upd.SetNow(now)
		ref.SetNow(now)
		for k := 0; k < 100; k++ {
			i := rng.Intn(len(cur))
			nw := cur[i]
			nw.Ref = now
			nw.Pos = cur[i].PositionAt(now)
			if rng.Intn(4) == 0 { // a turn or a jump
				nw = randomState(rng, i, now)
			}
			found, placed := upd.Update(cur[i], nw)
			if !found || !ref.Delete(cur[i]) {
				t.Fatalf("now=%d: object %d not found", now, i)
			}
			ref.Insert(nw)
			if placed {
				inPlace++
			}
			cur[i] = nw
		}
		if err := upd.Validate(); err != nil {
			t.Fatalf("now=%d: %v", now, err)
		}
		qt := now + motion.Tick(rng.Intn(60))
		r := geom.Rect{MinX: rng.Float64() * 700, MinY: rng.Float64() * 700}
		r.MaxX, r.MaxY = r.MinX+300, r.MinY+300
		got, want := ids(upd.RangeQuery(r, qt)), ids(ref.RangeQuery(r, qt))
		if !slices.Equal(got, want) {
			t.Fatalf("now=%d: Update's tree found %d objects, Delete+Insert's %d", now, len(got), len(want))
		}
	}
	if inPlace == 0 || inPlace == 3000 {
		t.Fatalf("%d of 3,000 re-reports in place, want some of each way", inPlace)
	}
}

func ids(states []motion.State) []motion.ObjectID {
	out := make([]motion.ObjectID, len(states))
	for i, s := range states {
		out[i] = s.ID
	}
	slices.Sort(out)
	return out
}

// TestUpdateInPlaceKeepsUnderfullAncestors: a re-report rewritten in its leaf
// changes no node's entry count, so an ancestor that was already underfull —
// as a faulty bulk load once left them — must not be condensed on its way:
// condensing it from the placed path would drop its orphans.
func TestUpdateInPlaceKeepsUnderfullAncestors(t *testing.T) {
	tr, _, states := loadedTree(t, 20000, 7)
	if tr.Height() < 3 {
		t.Fatalf("height %d, want two internal levels", tr.Height())
	}
	// Underfill the root's first child by handing entries to its siblings.
	root := tr.readNode(tr.root)
	under := tr.readNode(root.entries[0].child)
	for k := 1; len(under.entries) >= tr.minInt; k++ {
		sib := tr.readNode(root.entries[k].child)
		for len(under.entries) >= tr.minInt && len(sib.entries) < tr.fanInt {
			last := len(under.entries) - 1
			sib.entries = append(sib.entries, under.entries[last])
			under.entries = under.entries[:last]
		}
		tr.mustWrite(root.entries[k].child, sib)
		root.entries[k] = tr.boundOf(sib, root.entries[k].child)
	}
	tr.mustWrite(root.entries[0].child, under)
	root.entries[0] = tr.boundOf(under, root.entries[0].child)
	tr.mustWrite(tr.root, root)

	var old motion.State
	tr.walkLeaves(root.entries[0].child, func(e entry) { old = e.state() })
	nw := old
	nw.Ref = 2
	nw.Pos = old.PositionAt(2)
	tr.SetNow(2)
	if found, inPlace := tr.Update(old, nw); !found || !inPlace {
		t.Fatalf("Update = %v, %v, want found in place", found, inPlace)
	}
	if got := len(tr.All()); got != len(states) || tr.Len() != len(states) {
		t.Fatalf("%d movements in the tree, Len %d; want %d", got, tr.Len(), len(states))
	}
}
