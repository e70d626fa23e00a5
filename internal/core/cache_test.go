package core

import (
	"sync"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// cachedConfig is testConfig with the result cache enabled at a size no
// equivalence workload can overflow.
func cachedConfig() Config {
	cfg := testConfig()
	cfg.CacheBytes = 16 << 20
	return cfg
}

// TestCachedEquivalenceAcrossWorkersAndTick is the acceptance matrix:
// workers 1/2/17 × cache on/off × every method, re-checked across an
// invalidating Tick. The cached server must answer bit-identically to the
// uncached one, cold and warm, and the warm hit must charge zero IOs.
func TestCachedEquivalenceAcrossWorkersAndTick(t *testing.T) {
	for _, w := range []int{1, 2, 17} {
		cachedEquivalence(t, w)
	}
}

func cachedEquivalence(t *testing.T, w int) {
	const n, seed = 1500, 7
	cfgU := testConfig()
	cfgU.Workers = w
	sU, gU := loadServer(t, cfgU, n, seed)
	cfgC := cachedConfig()
	cfgC.Workers = w
	sC, gC := loadServer(t, cfgC, n, seed)

	for phase := 0; phase < 2; phase++ { // before and after a Tick
		for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce} {
			q := Query{Rho: relRho(n, 3), L: 60, At: sU.Now() + 5}
			base, err := sU.Snapshot(q, m)
			if err != nil {
				t.Fatalf("workers=%d %v phase=%d uncached: %v", w, m, phase, err)
			}
			cold, err := sC.Snapshot(q, m)
			if err != nil {
				t.Fatalf("workers=%d %v phase=%d cold: %v", w, m, phase, err)
			}
			warm, err := sC.Snapshot(q, m)
			if err != nil {
				t.Fatalf("workers=%d %v phase=%d warm: %v", w, m, phase, err)
			}
			if cold.Cached {
				t.Errorf("workers=%d %v phase=%d: cold answer claims Cached", w, m, phase)
			}
			if !warm.Cached {
				t.Errorf("workers=%d %v phase=%d: warm answer not Cached", w, m, phase)
			}
			if warm.IOs != 0 || warm.IOTime != 0 {
				t.Errorf("workers=%d %v phase=%d: warm hit charged %d IOs", w, m, phase, warm.IOs)
			}
			for name, got := range map[string]*Result{"cold": cold, "warm": warm} {
				if !regionsEqual(base.Region, got.Region) {
					t.Errorf("workers=%d %v phase=%d: %s region differs from uncached", w, m, phase, name)
				}
				if got.Accepted != base.Accepted || got.Rejected != base.Rejected ||
					got.Candidates != base.Candidates || got.ObjectsRetrieved != base.ObjectsRetrieved {
					t.Errorf("workers=%d %v phase=%d: %s counters differ from uncached", w, m, phase, name)
				}
			}
		}
		if err := sU.Tick(gU.Now()+1, gU.Advance()); err != nil {
			t.Fatal(err)
		}
		if err := sC.Tick(gC.Now()+1, gC.Advance()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheInvalidationOnMutations pins the epoch contract: every Tick, Load
// and admitted Apply bumps the epoch, and a bumped epoch turns the next
// identical query into a miss; a rejected Apply changes nothing and keeps
// the cached answers.
func TestCacheInvalidationOnMutations(t *testing.T) {
	s, g := loadServer(t, cachedConfig(), 800, 13)
	q := Query{Rho: relRho(800, 2), L: 60, At: 5}

	missesAfter := func(step string, wantEpoch uint64) int64 {
		t.Helper()
		if got := s.Epoch(); got != wantEpoch {
			t.Fatalf("%s: epoch = %d, want %d", step, got, wantEpoch)
		}
		if _, err := s.Snapshot(q, FR); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return s.CacheStats().Misses
	}

	e0 := s.Epoch() // Load in loadServer already bumped once
	if e0 != 1 {
		t.Fatalf("epoch after initial Load = %d, want 1", e0)
	}
	m0 := missesAfter("cold", e0)
	if m1 := missesAfter("warm", e0); m1 != m0 {
		t.Fatalf("repeat under one epoch evaluated again (misses %d -> %d)", m0, m1)
	}

	if err := s.Tick(s.Now()+1, g.Advance()); err != nil {
		t.Fatal(err)
	}
	m2 := missesAfter("after tick", e0+1)
	if m2 != m0+1 {
		t.Fatalf("tick did not invalidate: misses %d, want %d", m2, m0+1)
	}

	if err := s.Load(nil); err != nil { // empty load: mutation with no updates
		t.Fatal(err)
	}
	m3 := missesAfter("after load", e0+2)
	if m3 != m2+1 {
		t.Fatalf("load did not invalidate: misses %d, want %d", m3, m2+1)
	}

	if err := s.Apply(motion.Update{Kind: motion.UpdateKind(99)}); err == nil {
		t.Fatal("bogus update kind must be rejected")
	}
	if m4 := missesAfter("after rejected apply", e0+2); m4 != m3 {
		t.Fatalf("rejected apply invalidated: misses %d, want %d", m4, m3)
	}
	fresh := motion.State{ID: 1 << 30, Pos: geom.Point{X: 500, Y: 500}, Ref: s.Now()}
	if err := s.Apply(motion.NewInsert(fresh)); err != nil {
		t.Fatal(err)
	}
	m5 := missesAfter("after apply", e0+3)
	if m5 != m3+1 {
		t.Fatalf("apply did not invalidate: misses %d, want %d", m5, m3+1)
	}

	if err := s.Tick(s.Now()-1, nil); err == nil {
		t.Fatal("a tick moving time backwards must be rejected")
	}
	h5 := s.CacheStats().Hits
	if m6 := missesAfter("after rejected tick", e0+3); m6 != m5 {
		t.Fatalf("rejected tick invalidated: misses %d, want %d", m6, m5)
	}
	if h6 := s.CacheStats().Hits; h6 != h5+1 {
		t.Fatalf("query after rejected tick: hits %d, want %d", h6, h5+1)
	}

	// A batch of records is one write: one epoch bump for the two.
	other := fresh
	other.ID++
	if err := s.ApplyBatch([]motion.Update{motion.NewInsert(other), motion.NewDelete(fresh, s.Now())}); err != nil {
		t.Fatal(err)
	}
	m7 := missesAfter("after two-record apply", e0+4)
	if m7 != m5+1 {
		t.Fatalf("two-record apply did not invalidate: misses %d, want %d", m7, m5+1)
	}
	// A batch rejected at its first record changes nothing.
	if err := s.ApplyBatch([]motion.Update{motion.NewDelete(fresh, s.Now()), motion.NewInsert(fresh)}); err == nil {
		t.Fatal("a batch deleting an object no longer live must be rejected")
	}
	if m8 := missesAfter("after apply rejected at its first record", e0+4); m8 != m7 {
		t.Fatalf("apply rejected at its first record invalidated: misses %d, want %d", m8, m7)
	}
}

// TestCacheDisabledByDefault: CacheBytes=0 keeps the pre-cache behavior —
// no Cache handle, zero stats, and no answer ever claims Cached.
func TestCacheDisabledByDefault(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 800, 13)
	if s.Cache() != nil {
		t.Fatal("CacheBytes=0 must not build a cache")
	}
	q := Query{Rho: relRho(800, 2), L: 60, At: 5}
	for i := 0; i < 2; i++ {
		res, err := s.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.CachedCPU != 0 {
			t.Fatalf("query %d on a cacheless server claims Cached", i)
		}
	}
	if st := s.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("cacheless stats = %+v, want zeros", st)
	}
}

// TestCacheSingleflightStress fires N goroutines at the same cold query
// under -race: exactly one evaluation must happen per cold key — everyone
// else hits the resident entry or shares the winner's flight — and all N
// answers must be identical. Rounds repeat on fresh keys until at least one
// flight was actually shared, so singleflight_shared_total is exercised, not
// just the hit path.
func TestCacheSingleflightStress(t *testing.T) {
	cfg := cachedConfig()
	cfg.Workers = 4
	s, _ := loadServer(t, cfg, 1500, 3)

	const goroutines = 8
	const maxRounds = 20
	for round := 0; round < maxRounds; round++ {
		q := Query{Rho: relRho(1500, 3), L: 60, At: motion.Tick(round % 10)}
		before := s.CacheStats()
		results := make([]*Result, goroutines)
		errs := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = s.Snapshot(q, FR)
			}(i)
		}
		close(start)
		wg.Wait()

		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d goroutine %d: %v", round, i, err)
			}
		}
		for i := 1; i < goroutines; i++ {
			if !regionsEqual(results[0].Region, results[i].Region) {
				t.Fatalf("round %d: goroutine %d answered differently", round, i)
			}
		}
		after := s.CacheStats()
		// Keys repeat across rounds (At cycles mod 10), so only assert the
		// per-round deltas: at most one evaluation, everything else reused.
		if d := after.Misses - before.Misses; d > 1 {
			t.Fatalf("round %d: %d evaluations for one key", round, d)
		}
		if served := after.Misses + after.Hits + after.Shared -
			(before.Misses + before.Hits + before.Shared); served != goroutines {
			t.Fatalf("round %d: cache accounted %d lookups, want %d", round, served, goroutines)
		}
		if after.Shared > 0 {
			return // a flight was provably shared; the stress did its job
		}
	}
	t.Fatalf("no flight shared across %d rounds of %d concurrent identical queries", maxRounds, goroutines)
}

// TestCacheSlidingWindowInterval pins the tentpole's interval reuse: the
// window [t+1, hi+1] right after [t, hi] recomputes only the one new
// timestamp, and a fully warm re-run is served entirely from cache.
func TestCacheSlidingWindowInterval(t *testing.T) {
	cfg := cachedConfig()
	cfg.Workers = 4
	s, _ := loadServer(t, cfg, 1500, 11)
	sU, _ := loadServer(t, testConfig(), 1500, 11) // uncached twin

	q := Query{Rho: relRho(1500, 3), L: 60, At: 5}
	const hi = 15 // 11 timestamps
	iv1, err := s.Interval(q, hi, FR)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.CacheStats()
	if st1.Misses != hi-5+1 {
		t.Fatalf("cold interval evaluated %d timestamps, want %d", st1.Misses, hi-5+1)
	}
	if iv1.Cached {
		t.Error("cold interval claims Cached")
	}

	// Slide the window by one: only t=16 is new.
	q2 := q
	q2.At = 6
	iv2, err := s.Interval(q2, hi+1, FR)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.CacheStats()
	if d := st2.Misses - st1.Misses; d != 1 {
		t.Errorf("sliding window evaluated %d timestamps, want 1", d)
	}
	if reused := st2.Hits + st2.Shared - st1.Hits - st1.Shared; reused != hi-6+1 {
		t.Errorf("sliding window reused %d timestamps, want %d", reused, hi-6+1)
	}
	base2, err := sU.Interval(q2, hi+1, FR)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(base2.Region, iv2.Region) {
		t.Error("slid cached interval differs from the uncached answer")
	}

	// A fully warm re-run is served from cache end to end.
	iv3, err := s.Interval(q2, hi+1, FR)
	if err != nil {
		t.Fatal(err)
	}
	if !iv3.Cached || iv3.CachedCPU == 0 {
		t.Errorf("warm interval: Cached=%v CachedCPU=%v, want fully cached", iv3.Cached, iv3.CachedCPU)
	}
	if iv3.IOs != 0 {
		t.Errorf("warm interval charged %d IOs", iv3.IOs)
	}
	if !regionsEqual(base2.Region, iv3.Region) {
		t.Error("warm cached interval differs from the uncached answer")
	}
	if iv3.Wall == 0 || iv1.Wall == 0 {
		t.Error("interval Wall must be recorded")
	}
}

// TestSnapshotWallEqualsCPU: a sequential snapshot's Wall is its CPU; an
// interval's Wall is its own stopwatch, not the summed sub-snapshot CPU.
func TestSnapshotWallEqualsCPU(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 800, 13)
	q := Query{Rho: relRho(800, 2), L: 60, At: 5}
	res, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall != res.CPU {
		t.Errorf("snapshot Wall %v != CPU %v", res.Wall, res.CPU)
	}
	iv, err := s.Interval(q, 10, FR)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Wall == 0 {
		t.Error("interval Wall not recorded")
	}
}
