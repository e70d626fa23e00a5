// Package cache is the engine's epoch-versioned snapshot result cache: a
// sharded, memory-bounded LRU keyed by (epoch, timestamp, rho, l, method)
// with a singleflight layer that collapses concurrent identical evaluations
// into one.
//
// The design exploits the predictive model's immutability window: between
// two mutations of the summary structures (Tick/Apply/Load), the answer to
// a snapshot PDR query is a pure function of its key. The engine stamps
// every key with a monotonically increasing epoch that each mutation bumps,
// so invalidation is O(1) — superseded entries simply stop matching and age
// out of the LRU. No mutex is ever taken on the engine's write path.
//
// Concurrency: each shard owns a short-critical-section mutex over its map,
// recency list, and in-flight table; byte/entry accounting and the
// hit/miss/eviction statistics are process-global atomics, so Stats and a
// /metrics scrape never take a shard lock. Concurrent callers of the same
// key collapse: the first computes while the rest block on its flight and
// share the stored result. Entries are deep-immutable — the cache stores
// and returns private copies, so neither the winner's caller nor any reader
// can corrupt a cached region.
package cache

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pdr/internal/geom"
)

// Key identifies one snapshot evaluation. Two keys are equal exactly when
// the engine would produce bit-identical answers for them: same mutation
// epoch, same query timestamp, same density threshold and neighborhood
// edge, same evaluation method.
type Key struct {
	Epoch  uint64
	At     int64
	Rho, L float64
	Method uint8
}

// Entry is the memoized portion of a snapshot result: the answer region and
// the filter/refinement counters, plus the original evaluation cost (what a
// hit avoids). I/O is deliberately absent — a cached hit performs no page
// accesses and charges zero.
type Entry struct {
	Region                         geom.Region
	CPU                            time.Duration
	Accepted, Rejected, Candidates int
	ObjectsRetrieved               int
	// TraceID records the trace (if any) of the evaluation that computed
	// the entry, so cache hits can annotate their span with the source
	// trace — the one that actually did the work. Zero when the computing
	// query was untraced.
	TraceID uint64
}

// Per-entry accounting constants: a Rect is four float64s; the fixed
// overhead approximates the key, list node, map bucket share, and counters.
const (
	rectBytes       = 32
	entryFixedBytes = 160
)

// ApproxBytes is the entry's budget charge — approximate by design (Go
// gives no exact retained-size accounting), but monotone in the dominant
// term, the answer's rectangle count.
func (e *Entry) ApproxBytes() int64 {
	return entryFixedBytes + rectBytes*int64(len(e.Region))
}

// clone returns a deep copy of e. Rects are plain values, so copying the
// slice copies the geometry.
func (e *Entry) clone() *Entry {
	c := *e
	c.Region = append(geom.Region(nil), e.Region...)
	return &c
}

// Outcome classifies how Do resolved a lookup.
type Outcome int

const (
	// Computed: this caller evaluated (a cache miss, or the cache is nil).
	Computed Outcome = iota
	// Hit: the answer was resident in the LRU.
	Hit
	// Shared: another caller was already evaluating the same key; this
	// caller blocked on that flight and shares its result.
	Shared
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// flight is one in-progress evaluation; losers block on done. ent points at
// the cache-private copy, set before done closes, so sharers clone from
// storage the winner's caller can never mutate.
type flight struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// node is one LRU element payload.
type node struct {
	key   Key
	ent   *Entry
	bytes int64
}

// shard is one lock domain of the cache.
type shard struct {
	budget int64 // byte budget for this shard; immutable

	mu sync.Mutex
	// entries maps keys to their recency-list element; guarded by mu.
	entries map[Key]*list.Element
	// lru orders resident entries most-recently-used first; guarded by mu.
	lru *list.List
	// flights holds in-progress evaluations by key; guarded by mu.
	flights map[Key]*flight
	// bytes is the shard's resident accounting; guarded by mu.
	bytes int64
}

// numShards spreads lock contention across concurrent readers. Must be a
// power of two (the shard picker masks the key hash).
const numShards = 16

// Cache is the sharded LRU plus singleflight table. A nil *Cache is valid
// and disabled: Do computes every time and Stats returns zeros, so call
// sites need no guards when caching is off.
type Cache struct {
	shards [numShards]*shard

	// Process-global accounting: atomic, lock-free for readers (see Stats).
	hits, misses, shared, evictions atomic.Int64
	bytes, entries                  atomic.Int64

	// waiting counts callers blocked on another caller's flight right now
	// (test and introspection hook for the singleflight layer).
	waiting atomic.Int64
}

// New builds a cache bounded by budgetBytes of approximate entry
// accounting, split evenly across the shards. A budget <= 0 disables
// caching entirely: New returns nil, and every method of a nil *Cache is a
// cheap pass-through.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return newShards(budgetBytes, numShards)
}

// newShards builds the cache with the first n shards active — tests use
// n=1 for a deterministic global LRU order. n must divide the shard picker
// space; exported New always passes numShards.
func newShards(budgetBytes int64, n int) *Cache {
	c := &Cache{}
	per := budgetBytes / int64(n)
	if per <= 0 {
		per = 1
	}
	for i := 0; i < n; i++ {
		c.shards[i] = &shard{
			budget:  per,
			entries: make(map[Key]*list.Element),
			lru:     list.New(),
			flights: make(map[Key]*flight),
		}
	}
	// Unused shards (tests only) alias shard 0 so the picker needs no
	// bounds logic.
	for i := n; i < numShards; i++ {
		c.shards[i] = c.shards[0]
	}
	return c
}

// pick routes a key to its shard by an FNV-1a hash over the key's bits.
func (c *Cache) pick(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(k.Epoch)
	mix(uint64(k.At))
	mix(math.Float64bits(k.Rho))
	mix(math.Float64bits(k.L))
	h ^= uint64(k.Method)
	h *= prime64
	return c.shards[h&(numShards-1)]
}

// Do resolves key k: a resident entry is returned immediately (Hit); an
// entry already being evaluated by another caller is waited for (Shared); a
// cold key runs compute on the calling goroutine, stores the result, and
// wakes any waiters (Computed). The returned entry is always a private copy
// except on the Computed path, where it is compute's own return value.
//
// Errors are never cached: a failed compute is handed to this caller and to
// every waiter of the flight, and the next Do for the key evaluates afresh.
// On a nil cache, Do simply runs compute.
func (c *Cache) Do(k Key, compute func() (*Entry, error)) (*Entry, Outcome, error) {
	if c == nil {
		ent, err := compute()
		return ent, Computed, err
	}
	sh := c.pick(k)
	sh.mu.Lock()
	if el, ok := sh.entries[k]; ok {
		sh.lru.MoveToFront(el)
		ent := el.Value.(*node).ent.clone()
		sh.mu.Unlock()
		c.hits.Add(1)
		return ent, Hit, nil
	}
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		c.waiting.Add(1)
		<-f.done
		c.waiting.Add(-1)
		c.shared.Add(1)
		if f.err != nil {
			return nil, Shared, f.err
		}
		return f.ent.clone(), Shared, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()

	c.misses.Add(1)
	settled := false
	// A panicking compute must still settle the flight, or every waiter
	// would block forever; the panic then propagates to this caller.
	defer func() {
		if !settled {
			f.err = fmt.Errorf("cache: evaluation panicked")
			c.settle(sh, k, f, nil)
		}
	}()
	ent, err := compute()
	settled = true
	if err != nil {
		f.err = err
		c.settle(sh, k, f, nil)
		return nil, Computed, err
	}
	c.settle(sh, k, f, ent.clone())
	return ent, Computed, nil
}

// settle removes the flight, stores the (already cloned) entry when the
// evaluation succeeded and fits the budget, and wakes the waiters.
func (c *Cache) settle(sh *shard, k Key, f *flight, stored *Entry) {
	sh.mu.Lock()
	delete(sh.flights, k)
	if stored != nil {
		f.ent = stored
		sh.storeLocked(k, stored, c)
	}
	sh.mu.Unlock()
	close(f.done)
}

// storeLocked inserts the entry at the front of the recency list and evicts
// from the tail until the shard fits its budget again. An entry that alone
// exceeds the shard budget is not cached (evicting everything else would
// still not make it fit). The caller holds sh.mu.
func (sh *shard) storeLocked(k Key, ent *Entry, c *Cache) {
	b := ent.ApproxBytes()
	if b > sh.budget {
		return
	}
	if el, ok := sh.entries[k]; ok {
		// Defensive: flights are exclusive per key, so a store racing a
		// resident entry should be unreachable; refresh rather than
		// double-account if it ever happens.
		sh.lru.MoveToFront(el)
		return
	}
	el := sh.lru.PushFront(&node{key: k, ent: ent, bytes: b})
	sh.entries[k] = el
	sh.bytes += b
	c.bytes.Add(b)
	c.entries.Add(1)
	for sh.bytes > sh.budget {
		sh.evictOldestLocked(c)
	}
}

// evictOldestLocked drops the least-recently-used entry. The caller holds
// sh.mu and has ensured the list is non-empty (bytes > budget implies at
// least one resident entry).
func (sh *shard) evictOldestLocked(c *Cache) {
	el := sh.lru.Back()
	if el == nil {
		return
	}
	n := el.Value.(*node)
	sh.lru.Remove(el)
	delete(sh.entries, n.key)
	sh.bytes -= n.bytes
	c.bytes.Add(-n.bytes)
	c.entries.Add(-1)
	c.evictions.Add(1)
}

// Stats is a point-in-time snapshot of the cache accounting.
type Stats struct {
	// Hits served from the LRU; Misses evaluated by the caller; Shared
	// collapsed onto another caller's in-flight evaluation.
	Hits, Misses, Shared int64
	// Evictions counts entries dropped by the byte budget.
	Evictions int64
	// Bytes and Entries describe the resident set (approximate accounting).
	Bytes, Entries int64
	// Waiting is the number of callers blocked on an in-flight evaluation
	// at the instant of the snapshot — transient by nature; useful for
	// debugging singleflight behaviour and for deterministic tests.
	Waiting int64
}

// HitRatio is the fraction of lookups served without an evaluation — LRU
// hits plus singleflight sharers over all lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Shared
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Stats reads the counters (atomics; never takes a shard lock). A nil cache
// reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
		Waiting:   c.waiting.Load(),
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// waiters returns how many callers are currently blocked on another
// caller's flight (test hook for the singleflight layer).
func (c *Cache) waiters() int64 { return c.waiting.Load() }
