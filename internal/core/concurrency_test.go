package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// singleShardState finds a stationary state owned by exactly the given
// shard (zero velocity => point coverage => no replicas).
func singleShardState(t *testing.T, e *Server, shard int, id motion.ObjectID) motion.State {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(shard) + 1))
	for i := 0; i < 100000; i++ {
		st := motion.State{
			ID:  id,
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		}
		primary, replicas := e.router.OwnersOf(st, 0)
		if primary == shard && replicas == 0 {
			return st
		}
	}
	t.Fatalf("no single-shard state found for shard %d", shard)
	return motion.State{}
}

// TestApplyLocksOnlyOwningShard is the write-scaling claim, demonstrated
// against the lock structure itself: with one shard's write lock held by the
// test, an update routed to a different shard completes, while an update
// routed to the held shard blocks until release.
func TestApplyLocksOnlyOwningShard(t *testing.T) {
	eng, err := NewServer(streamConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Prime the histograms first: the first-ever insert otherwise takes
	// every shard lock to fix the window phase.
	if err := eng.Tick(0, nil); err != nil {
		t.Fatal(err)
	}
	other := singleShardState(t, eng, 2, 1)
	held := singleShardState(t, eng, 0, 2)

	eng.pmu[0].Lock()
	done := make(chan error, 1)
	go func() { done <- eng.Apply(motion.NewInsert(other)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("apply to unheld shard: %v", err)
		}
	case <-time.After(5 * time.Second):
		eng.pmu[0].Unlock()
		t.Fatal("apply to shard 2 blocked while only shard 0's lock was held")
	}

	blocked := make(chan error, 1)
	go func() { blocked <- eng.Apply(motion.NewInsert(held)) }()
	select {
	case err := <-blocked:
		eng.pmu[0].Unlock()
		t.Fatalf("apply to held shard 0 completed while its write lock was held (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Still blocked, as it must be.
	}
	eng.pmu[0].Unlock()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("apply to shard 0 after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("apply to shard 0 never completed after release")
	}
}

// TestWriteFanoutMasks pins the lock-set width: a stationary interior object
// locks exactly one shard; a fast boundary-crosser locks several.
func TestWriteFanoutMasks(t *testing.T) {
	eng, err := NewServer(streamConfig(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	interior := singleShardState(t, eng, 3, 10)
	_, replicas := eng.router.OwnersOf(interior, 0)
	if got := bits.OnesCount64(replicas | 1); got != 1 {
		t.Fatalf("stationary interior object registered with %d shards, want 1", got)
	}
	crosser := motion.State{ID: 11, Pos: geom.Point{X: 10, Y: 500}, Vel: geom.Vec{X: 11, Y: 0}, Ref: 0}
	primary, reps := eng.router.OwnersOf(crosser, 0)
	if reps == 0 {
		t.Fatalf("cross-plane trajectory registered only with shard %d", primary)
	}
}

// TestConcurrentWritesAndQueries is the race stress: writers hammer disjoint
// object ranges through Apply while readers run snapshots, intervals, and
// past queries, and a ticker advances time. Run under -race via check.sh.
func TestConcurrentWritesAndQueries(t *testing.T) {
	cfg := streamConfig(8, 4)
	cfg.CacheBytes = 1 << 18
	eng, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := makeStream()
	st.replay(t, eng)
	base := eng.Now()

	const writers = 4
	const perWriter = 60
	var wg sync.WaitGroup
	errc := make(chan error, writers+3)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 97))
			for i := 0; i < perWriter; i++ {
				id := motion.ObjectID(100000 + w*1000 + i)
				s := motion.State{
					ID:  id,
					Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
					Vel: geom.Vec{X: (rng.Float64() - 0.5) * 16, Y: (rng.Float64() - 0.5) * 16},
					Ref: base,
				}
				if err := eng.Apply(motion.NewInsert(s)); err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %w", w, id, err)
					return
				}
				if i%2 == 0 {
					if err := eng.Apply(motion.NewDelete(s, base)); err != nil {
						errc <- fmt.Errorf("writer %d delete %d: %w", w, id, err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := Query{Rho: 0.0001, L: 100, At: eng.Now() + motion.Tick(i%5)}
				if _, err := eng.Snapshot(q, allMethods[i%len(allMethods)]); err != nil {
					errc <- fmt.Errorf("snapshot: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := eng.PastSnapshot(Query{Rho: 0.0001, L: 100, At: 4}); err != nil {
				errc <- fmt.Errorf("past: %w", err)
				return
			}
			if _, err := eng.Interval(Query{Rho: 0.0001, L: 100, At: eng.Now()}, eng.Now()+3, FR); err != nil {
				errc <- fmt.Errorf("interval: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Every surviving write is visible: the directory count must match a
	// brute-force gather.
	got, err := eng.Snapshot(Query{Rho: 0.0001, L: 100, At: eng.Now()}, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if got.ObjectsRetrieved > eng.NumObjects() {
		t.Fatalf("gathered %d points from %d live objects", got.ObjectsRetrieved, eng.NumObjects())
	}
}
