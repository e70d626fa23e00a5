package core

import (
	"strings"
	"sync"
	"testing"

	"pdr/internal/motion"
)

// TestConcurrentQueryTickStress fires a mix of FR Snapshot, Interval, and
// PA Snapshot readers concurrently with a writer advancing the clock. It
// asserts nothing about answers — its job is to give the race detector a
// workload where the engine lock, the pool's LRU, the sweep scratch pool,
// and the worker pool all contend at once. Readers tolerate engine
// rejections (the writer moves the clock under them, so a stale q.At can
// fall outside the horizon) but not unexpected failures or panics.
func TestConcurrentQueryTickStress(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	s, g := loadServer(t, cfg, 1500, 3)

	const (
		readers    = 6
		iterations = 8
		ticks      = 6
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				at := s.Now() // may be stale by the time the query runs; that's the point
				q := Query{Rho: relRho(1500, 3), L: 60, At: at + motion.Tick(r%3)}
				switch r % 3 {
				case 0:
					if _, err := s.Snapshot(q, FR); err != nil && !isEngineReject(err) {
						t.Errorf("reader %d: snapshot: %v", r, err)
					}
				case 1:
					if _, err := s.Interval(q, q.At+3, DHOptimistic); err != nil && !isEngineReject(err) {
						t.Errorf("reader %d: interval: %v", r, err)
					}
				case 2:
					if _, err := s.Snapshot(q, PA); err != nil && !isEngineReject(err) {
						t.Errorf("reader %d: pa snapshot: %v", r, err)
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			if err := s.Tick(s.Now()+1, g.Advance()); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// isEngineReject reports whether err is an orderly engine rejection (all of
// which carry the "core:" prefix) as opposed to a crash surfaced as an error.
func isEngineReject(err error) bool {
	return strings.HasPrefix(err.Error(), "core:")
}
