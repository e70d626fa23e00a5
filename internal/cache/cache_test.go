package cache

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pdr/internal/geom"
	"pdr/internal/telemetry"
)

// entryWithRects builds an entry whose budget charge is deterministic:
// entryFixedBytes + rects*rectBytes.
func entryWithRects(rects int) *Entry {
	e := &Entry{CPU: time.Millisecond}
	for i := 0; i < rects; i++ {
		e.Region = append(e.Region, geom.NewRect(float64(i), 0, float64(i)+1, 1))
	}
	return e
}

func key(epoch uint64, at int64) Key {
	return Key{Epoch: epoch, At: at, Rho: 0.5, L: 60, Method: 0}
}

// mustCompute asserts one Do resolves by evaluation.
func mustCompute(t *testing.T, c *Cache, k Key, ent *Entry) {
	t.Helper()
	got, outcome, err := c.Do(k, func() (*Entry, error) { return ent, nil })
	if err != nil || outcome != Computed || got != ent {
		t.Fatalf("Do(%v) = (%p, %v, %v), want computed %p", k, got, outcome, err, ent)
	}
}

// lookup resolves k with a compute that fails the test if it runs.
func lookup(t *testing.T, c *Cache, k Key) (*Entry, Outcome) {
	t.Helper()
	ent, outcome, err := c.Do(k, func() (*Entry, error) {
		return entryWithRects(1), nil
	})
	if err != nil {
		t.Fatalf("Do(%v): %v", k, err)
	}
	return ent, outcome
}

func TestZeroBudgetDisablesCache(t *testing.T) {
	if c := New(0); c != nil {
		t.Fatalf("New(0) = %v, want nil", c)
	}
	if c := New(-5); c != nil {
		t.Fatalf("New(-5) = %v, want nil", c)
	}
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		ent, outcome, err := c.Do(key(1, 0), func() (*Entry, error) {
			calls++
			return entryWithRects(1), nil
		})
		if err != nil || outcome != Computed || ent == nil {
			t.Fatalf("nil cache Do = (%v, %v, %v)", ent, outcome, err)
		}
	}
	if calls != 3 {
		t.Errorf("nil cache memoized: %d computes for 3 lookups", calls)
	}
	if got := c.Stats(); got != (Stats{}) {
		t.Errorf("nil cache stats = %+v, want zeros", got)
	}
}

func TestHitReturnsEqualRegion(t *testing.T) {
	c := New(1 << 20)
	want := entryWithRects(3)
	want.Accepted, want.Rejected, want.Candidates, want.ObjectsRetrieved = 1, 2, 3, 4
	mustCompute(t, c, key(1, 0), want)
	got, outcome := lookup(t, c, key(1, 0))
	if outcome != Hit {
		t.Fatalf("second lookup outcome = %v, want hit", outcome)
	}
	if len(got.Region) != len(want.Region) {
		t.Fatalf("hit region has %d rects, want %d", len(got.Region), len(want.Region))
	}
	for i := range got.Region {
		if got.Region[i] != want.Region[i] {
			t.Errorf("rect %d differs: %v vs %v", i, got.Region[i], want.Region[i])
		}
	}
	if got.Accepted != 1 || got.Rejected != 2 || got.Candidates != 3 || got.ObjectsRetrieved != 4 {
		t.Errorf("hit counters = %+v, want the stored ones", got)
	}
	if got.CPU != want.CPU {
		t.Errorf("hit CPU = %v, want the original evaluation cost %v", got.CPU, want.CPU)
	}
}

// TestHitAndSharerReadTheStoredEntry: entries are shared read-only, not
// copied — a hit and a sharer of a flight get compute's own *Entry and its
// region's backing array (TestCacheDoHitAllocs pins that a hit allocates
// nothing).
func TestHitAndSharerReadTheStoredEntry(t *testing.T) {
	c := New(1 << 20)
	want := entryWithRects(2)
	mustCompute(t, c, key(1, 0), want)
	got, outcome := lookup(t, c, key(1, 0))
	if outcome != Hit || got != want || &got.Region[0] != &want.Region[0] {
		t.Fatalf("hit = (%p, region %p, %v), want the stored (%p, region %p)",
			got, &got.Region[0], outcome, want, &want.Region[0])
	}

	flown := entryWithRects(2)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(key(1, 1), func() (*Entry, error) {
			close(started)
			<-release
			return flown, nil
		})
	}()
	<-started
	shared := make(chan *Entry, 1)
	go func() {
		ent, outcome, err := c.Do(key(1, 1), func() (*Entry, error) {
			t.Error("sharer evaluated; singleflight failed to collapse")
			return entryWithRects(2), nil
		})
		if err != nil || outcome != Shared {
			t.Errorf("sharer: (%v, %v), want shared", outcome, err)
		}
		shared <- ent
	}()
	for c.Stats().Waiting < 1 {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	<-done
	if got := <-shared; got != flown || &got.Region[0] != &flown.Region[0] {
		t.Fatalf("sharer got (%p, region %p), want the flight's (%p, region %p)",
			got, &got.Region[0], flown, &flown.Region[0])
	}
}

// TestLRUEvictionOrder pins the eviction policy within one epoch: the
// least-recently-used key goes first.
func TestLRUEvictionOrder(t *testing.T) {
	per := entryWithRects(1).ApproxBytes()
	c := New(2 * per) // room for exactly two entries
	k0, k1 := key(1, 0), key(1, 1)
	mustCompute(t, c, k0, entryWithRects(1))
	mustCompute(t, c, k1, entryWithRects(1))

	// Touch k0 so k1 is the LRU tail, then insert a third entry.
	if _, outcome := lookup(t, c, k0); outcome != Hit {
		t.Fatal("k0 should be resident")
	}
	mustCompute(t, c, key(1, 2), entryWithRects(1))

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after third insert = %+v, want 1 eviction, 2 entries", st)
	}
	if _, outcome := lookup(t, c, k1); outcome != Computed {
		t.Errorf("k1 (the LRU tail) should have been evicted")
	}
	// k1's re-insert just evicted the next tail: k0.
	if _, outcome := lookup(t, c, key(1, 2)); outcome != Hit {
		t.Errorf("the newest entry must survive the evictions")
	}
	if _, outcome := lookup(t, c, k0); outcome != Computed {
		t.Errorf("k0 (the tail after k1's re-insert) should have been evicted")
	}
}

func TestBytesAccounting(t *testing.T) {
	per := entryWithRects(4).ApproxBytes()
	c := New(3 * per)
	for i := int64(0); i < 3; i++ {
		mustCompute(t, c, key(1, i), entryWithRects(4))
	}
	st := c.Stats()
	if st.Bytes != 3*per || st.Entries != 3 {
		t.Fatalf("resident = %d bytes / %d entries, want %d / 3", st.Bytes, st.Entries, 3*per)
	}
	// A fourth entry displaces exactly one.
	mustCompute(t, c, key(1, 99), entryWithRects(4))
	st = c.Stats()
	if st.Bytes != 3*per || st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after displacement: %+v", st)
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	c := New(entryFixedBytes + 2*rectBytes)
	huge := entryWithRects(1000)
	mustCompute(t, c, key(1, 0), huge)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize entry was cached: %+v", st)
	}
	if _, outcome := lookup(t, c, key(1, 0)); outcome != Computed {
		t.Error("oversize entry must re-evaluate")
	}
}

// TestLargeEntryWithinBudgetIsCached: the budget applies whole, so an
// answer that takes a quarter of it is stored and hits.
func TestLargeEntryWithinBudgetIsCached(t *testing.T) {
	big := entryWithRects(10000)
	c := New(4 * big.ApproxBytes())
	mustCompute(t, c, key(1, 0), big)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != big.ApproxBytes() {
		t.Fatalf("stats = %+v, want the one %d-byte entry resident", st, big.ApproxBytes())
	}
	if got, outcome := lookup(t, c, key(1, 0)); outcome != Hit || len(got.Region) != len(big.Region) {
		t.Fatalf("lookup = (%d rects, %v), want a %d-rect hit", len(got.Region), outcome, len(big.Region))
	}
}

// TestNewerEpochDropsOlderEntries: once a key of a newer epoch is looked up,
// no older entry can hit again, and none stays resident. The drop is not
// an eviction.
func TestNewerEpochDropsOlderEntries(t *testing.T) {
	c := New(64 << 20)
	for i := int64(0); i < 20; i++ {
		mustCompute(t, c, key(1, i), entryWithRects(1000))
	}
	newest := entryWithRects(3)
	mustCompute(t, c, key(2, 0), newest)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != newest.ApproxBytes() || st.Evictions != 0 {
		t.Fatalf("stats after the first epoch-2 store = %+v, want 1 entry of %d bytes and no eviction",
			st, newest.ApproxBytes())
	}
	if _, outcome := lookup(t, c, key(2, 0)); outcome != Hit {
		t.Error("the epoch-2 entry must hit")
	}
}

// TestOlderEpochKeyNotStored: a key older than the newest epoch seen is
// computed every time and never takes budget.
func TestOlderEpochKeyNotStored(t *testing.T) {
	c := New(1 << 20)
	mustCompute(t, c, key(2, 0), entryWithRects(1))
	for i := 0; i < 2; i++ {
		mustCompute(t, c, key(1, 0), entryWithRects(1))
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 misses and only the epoch-2 entry resident", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	_, outcome, err := c.Do(key(1, 0), func() (*Entry, error) { return nil, boom })
	if !errors.Is(err, boom) || outcome != Computed {
		t.Fatalf("Do = (%v, %v), want the compute error", outcome, err)
	}
	if _, outcome := lookup(t, c, key(1, 0)); outcome != Computed {
		t.Error("a failed evaluation must not leave a resident entry")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses", st)
	}
}

// TestSingleflightCollapses pins the collapse deterministically: the winner
// blocks inside compute until the losers are provably waiting on its
// flight, so exactly one evaluation serves every concurrent caller.
func TestSingleflightCollapses(t *testing.T) {
	c := New(1 << 20)
	const losers = 4
	started := make(chan struct{})
	release := make(chan struct{})
	want := entryWithRects(2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcome, err := c.Do(key(1, 0), func() (*Entry, error) {
			close(started)
			<-release
			return want, nil
		})
		if err != nil || outcome != Computed {
			t.Errorf("winner: (%v, %v)", outcome, err)
		}
	}()
	<-started

	outcomes := make(chan Outcome, losers)
	for i := 0; i < losers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, outcome, err := c.Do(key(1, 0), func() (*Entry, error) {
				t.Error("loser evaluated; singleflight failed to collapse")
				return entryWithRects(2), nil
			})
			if err != nil || len(ent.Region) != len(want.Region) {
				t.Errorf("loser: (%v, %v)", ent, err)
			}
			outcomes <- outcome
		}()
	}
	// Release only once every loser is parked on the winner's flight.
	for c.Stats().Waiting < losers {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	close(outcomes)

	sharedN := 0
	for o := range outcomes {
		if o == Shared {
			sharedN++
		}
	}
	if sharedN != losers {
		t.Errorf("%d of %d losers shared the flight", sharedN, losers)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Shared != int64(losers) {
		t.Errorf("stats = %+v, want 1 miss and %d shared", st, losers)
	}
}

// TestSingleflightSharesErrors: waiters of a failed flight receive the
// winner's error instead of silently recomputing under the flight.
func TestSingleflightSharesErrors(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(key(1, 0), func() (*Entry, error) {
			close(started)
			<-release
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("winner error = %v", err)
		}
	}()
	<-started

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcome, err := c.Do(key(1, 0), func() (*Entry, error) {
			t.Error("loser evaluated under an in-flight key")
			return nil, nil
		})
		if !errors.Is(err, boom) || outcome != Shared {
			t.Errorf("loser = (%v, %v), want the shared error", outcome, err)
		}
	}()
	for c.Stats().Waiting < 1 {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	wg.Wait()
}

// TestPanickingComputeSettlesFlight: a compute that panics still settles
// its flight, so a waiter gets an error instead of blocking forever, and
// the panic reaches the computing caller.
func TestPanickingComputeSettlesFlight(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(key(1, 0), func() (*Entry, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(key(1, 0), func() (*Entry, error) { return entryWithRects(1), nil })
		waiterErr <- err
	}()
	for c.Stats().Waiting < 1 {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Errorf("computing caller recovered %v, want the panic", r)
	}
	if err := <-waiterErr; err == nil {
		t.Error("the waiter of a panicked flight got no error")
	}
	if _, outcome := lookup(t, c, key(1, 0)); outcome != Computed {
		t.Errorf("after a panicked flight the key resolved %v, want a fresh evaluation", outcome)
	}
}

// TestConcurrentMixedKeys is the race-detector workload: many goroutines
// hammer a small key space through hits, misses, shared flights, evictions,
// epoch drops and keys of superseded epochs at once.
func TestConcurrentMixedKeys(t *testing.T) {
	per := entryWithRects(2).ApproxBytes()
	c := New(4 * per) // tight: evictions guaranteed
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(uint64(i/40), int64((g+i)%7))
				ent, _, err := c.Do(k, func() (*Entry, error) {
					return entryWithRects(2), nil
				})
				if err != nil || len(ent.Region) != 2 {
					t.Errorf("Do(%v): (%v, %v)", k, ent, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Shared != 8*200 {
		t.Errorf("lookup accounting leaks: %+v", st)
	}
	if st.Bytes > 4*per {
		t.Errorf("resident bytes %d exceed the budget", st.Bytes)
	}
}

// TestMetricsReadAtScrapeTime registers the cache on a registry only after
// it has served lookups: the exposition reads the cache's own counters, so
// it reports every lookup since the cache was built, as Stats does.
func TestMetricsReadAtScrapeTime(t *testing.T) {
	c := New(1 << 20)
	mustCompute(t, c, key(1, 0), entryWithRects(1))
	if _, outcome := lookup(t, c, key(1, 0)); outcome != Hit {
		t.Fatal("expected a hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{
		"pdr_cache_hits_total 1",
		"pdr_cache_misses_total 1",
		"pdr_cache_entries 1",
		"pdr_cache_hit_ratio 0.5",
	} {
		if !strings.Contains(buf.String(), sample+"\n") {
			t.Errorf("exposition lacks %q:\n%s", sample, buf.String())
		}
	}
}

// TestHitRatioFreshProcess pins the zero-denominator guard: before the
// first lookup the ratio must be 0, not NaN — NaN in the pdr_cache_hit_ratio
// gauge breaks a Prometheus scrape of a fresh process.
func TestHitRatioFreshProcess(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 || math.IsNaN(r) {
		t.Fatalf("fresh HitRatio = %v, want 0", r)
	}
	reg := telemetry.NewRegistry()
	New(1 << 20).RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if strings.Contains(body, "NaN") {
		t.Fatalf("fresh exposition contains NaN:\n%s", body)
	}
	if !strings.Contains(body, "pdr_cache_hit_ratio 0") {
		t.Fatalf("fresh exposition missing zero hit ratio:\n%s", body)
	}
}

// hitOp is the hit BenchmarkCacheDoHit and BenchmarkCacheDoHitParallel
// time: a cache holding one 10,000-rect entry, the shape of bench/layers'
// cache.do_hit_us probe, and the lookup that hits it. The stored entry itself
// is returned, so nothing is allocated. op is safe for concurrent use.
func hitOp(tb testing.TB) func() {
	c := New(64 << 20)
	ent := entryWithRects(10000)
	k := key(1, 1)
	compute := func() (*Entry, error) { return ent, nil }
	if _, _, err := c.Do(k, compute); err != nil {
		tb.Fatal(err)
	}
	return func() {
		got, outcome, err := c.Do(k, compute)
		if err != nil || outcome != Hit || got != ent {
			tb.Errorf("Do = (%v, %v), want the stored entry's hit", outcome, err)
		}
	}
}

// BenchmarkCacheDoHit times one hit: the lock and the recency move.
func BenchmarkCacheDoHit(b *testing.B) {
	op := hitOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkCacheDoHitParallel is the same hit from GOMAXPROCS goroutines at
// once: what readers pay for sharing the cache's one mutex.
func BenchmarkCacheDoHitParallel(b *testing.B) {
	op := hitOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op()
		}
	})
}

// TestCacheDoHitAllocs pins a hit at zero allocations, alone
// (BenchmarkCacheDoHit) and from GOMAXPROCS goroutines at once
// (BenchmarkCacheDoHitParallel). The parallel hits' mallocs are counted at
// the test's GOMAXPROCS, over 1,000 hits shared out as RunParallel does, the
// goroutines' start included.
func TestCacheDoHitAllocs(t *testing.T) {
	op := hitOp(t)
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("BenchmarkCacheDoHit: %v allocs/op, want 0", n)
	}
	const hits = 1000
	procs := runtime.GOMAXPROCS(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < hits; i += procs {
				op()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / hits; n != 0 {
		t.Errorf("BenchmarkCacheDoHitParallel: %d allocs/op, want 0", n)
	}
}
