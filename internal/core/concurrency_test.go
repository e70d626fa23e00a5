package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// TestConcurrentWritesAndQueries is the race stress: writers hammer disjoint
// object ranges through Apply while readers run snapshots, intervals, past
// queries and Contours over the surface the writers update. Run under -race
// via check.sh.
func TestConcurrentWritesAndQueries(t *testing.T) {
	cfg := streamConfig(4)
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
	errc := make(chan error, writers+4)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := eng.Contours(eng.Now(), 0.0001, 16); err != nil {
				errc <- fmt.Errorf("contours: %w", err)
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
