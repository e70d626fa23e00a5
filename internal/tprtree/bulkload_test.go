package tprtree

import (
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

// TestBulkLoadValidTree sweeps n across level boundaries: every node but the
// root must hold at least the minimum fill, however the last slab and the
// last group of each slab come out, and every page allocated must be a node
// of the tree.
func TestBulkLoadValidTree(t *testing.T) {
	ns := []int{0, 1, 5, 59, 60, 100, 2000, 5000, 20000}
	for n := 61; n < 1500; n += 37 {
		ns = append(ns, n)
	}
	for _, n := range ns {
		pool := storage.NewPool(0)
		tr, err := New(Config{Pool: pool, Horizon: 90})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		states := make([]motion.State, n)
		for i := range states {
			states[i] = randomState(rng, i, 0)
		}
		if err := tr.BulkLoad(states); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if n > 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		if nodes := countNodes(tr, tr.root); pool.NumPages() != nodes {
			t.Fatalf("n=%d: %d pages allocated, %d nodes in the tree", n, pool.NumPages(), nodes)
		}
	}
}

// countNodes returns the number of nodes in the subtree at pid.
func countNodes(tr *Tree, pid storage.PageID) int {
	n := tr.readNode(pid)
	count := 1
	if !n.leaf {
		for _, e := range n.entries {
			count += countNodes(tr, e.child)
		}
	}
	return count
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := newTestTree(t)
	rng := rand.New(rand.NewSource(1))
	tr.Insert(randomState(rng, 0, 0))
	if err := tr.BulkLoad([]motion.State{randomState(rng, 1, 0)}); err == nil {
		t.Error("BulkLoad on a non-empty tree must fail")
	}
}

func TestBulkLoadQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 3000
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	bulk := newTestTree(t)
	if err := bulk.BulkLoad(states); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		qt := motion.Tick(rng.Intn(90))
		r := geom.Rect{MinX: rng.Float64() * 800, MinY: rng.Float64() * 800}
		r.MaxX = r.MinX + 30 + rng.Float64()*150
		r.MaxY = r.MinY + 30 + rng.Float64()*150
		want := 0
		for _, s := range states {
			if r.ContainsClosed(s.PositionAt(qt)) {
				want++
			}
		}
		if got := len(bulk.RangeQuery(r, qt)); got != want {
			t.Fatalf("trial %d: bulk tree found %d, want %d", trial, got, want)
		}
	}
}

func TestBulkLoadThenUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	tr := newTestTree(t)
	if err := tr.BulkLoad(states); err != nil {
		t.Fatal(err)
	}
	// Delete + reinsert a third of the objects; the tree must stay valid.
	for _, i := range rng.Perm(n)[:n/3] {
		if !tr.Delete(states[i]) {
			t.Fatalf("Delete(%d) after bulk load failed", states[i].ID)
		}
		states[i] = randomState(rng, i, 5)
		tr.Insert(states[i])
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadFewerPagesThanIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 5000
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	poolBulk := storage.NewPool(0)
	bulk, _ := New(Config{Pool: poolBulk, Horizon: 90})
	if err := bulk.BulkLoad(states); err != nil {
		t.Fatal(err)
	}
	poolInc := storage.NewPool(0)
	inc, _ := New(Config{Pool: poolInc, Horizon: 90})
	for _, s := range states {
		inc.Insert(s)
	}
	// Bulk loading targets 70% fill (headroom for later inserts), so page
	// counts should be comparable to incremental loading, not wildly worse.
	if float64(poolBulk.NumPages()) > 1.25*float64(poolInc.NumPages()) {
		t.Errorf("bulk load used %d pages, incremental %d — packing far worse than expected",
			poolBulk.NumPages(), poolInc.NumPages())
	}
}

func BenchmarkBulkLoad10K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	states := make([]motion.State, 10000)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _ := New(Config{Pool: storage.NewPool(0), Horizon: 90})
		if err := tr.BulkLoad(states); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalLoad10K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	states := make([]motion.State, 10000)
	for i := range states {
		states[i] = randomState(rng, i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _ := New(Config{Pool: storage.NewPool(0), Horizon: 90})
		for _, s := range states {
			tr.Insert(s)
		}
	}
}
