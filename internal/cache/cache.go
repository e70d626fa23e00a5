// Package cache is the engine's snapshot result cache: one memory-bounded
// LRU keyed by (epoch, timestamp, rho, l, method), with a singleflight layer
// that collapses concurrent identical evaluations into one.
//
// Between two mutations of the summary structures (Tick/Apply/Load), the
// answer to a snapshot PDR query is a pure function of its key. The engine
// stamps every key with an epoch that each mutation bumps under its write
// lock, and calls Do only under its read lock, so once a key of a newer
// epoch reaches Do no key of an older one can follow. The cache therefore
// holds one epoch: the first Do of a newer epoch drops every resident entry,
// and a key of an older epoch is computed and not stored. Invalidation costs
// the write path nothing — it takes no cache mutex and walks no entries.
//
// Concurrency: one mutex guards the map, the recency list and the in-flight
// table; byte/entry accounting and the hit/miss/eviction statistics are
// atomics, so Stats and a /metrics scrape never take it. Concurrent callers
// of the same key collapse: the first computes while the rest block on its
// flight and share the stored result. Entries are read-only: the cache
// stores compute's own entry and hands that same entry to every hit and
// sharer, so no holder — the winner's caller included — may write to it or
// to its region.
package cache

import (
	"container/list"
	"fmt"
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

// flight is one in-progress evaluation; losers block on done. ent is the
// winner's entry, set before done closes and read-only from then on.
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

// Cache is the LRU plus singleflight table. A nil *Cache is valid and
// disabled: Do computes every time and Stats returns zeros, so call sites
// need no guards when caching is off.
type Cache struct {
	budget int64 // byte budget; immutable

	mu sync.Mutex
	// epoch is the newest key epoch Do has seen; guarded by mu.
	epoch uint64
	// resident maps keys of epoch to their recency-list element; guarded
	// by mu.
	resident map[Key]*list.Element
	// lru orders resident entries most-recently-used first; guarded by mu.
	lru *list.List
	// flights holds in-progress evaluations by key; guarded by mu.
	flights map[Key]*flight

	// Accounting: atomic, lock-free for readers (see Stats). bytes and
	// entries change only under mu.
	hits, misses, shared, evictions atomic.Int64
	bytes, entries                  atomic.Int64

	// waiting counts callers blocked on another caller's flight right now.
	waiting atomic.Int64
}

// New builds a cache bounded by budgetBytes of approximate entry
// accounting. A budget <= 0 disables caching entirely: New returns nil, and
// every method of a nil *Cache is a cheap pass-through.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return &Cache{
		budget:   budgetBytes,
		resident: make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight),
	}
}

// Do resolves key k: a resident entry is returned immediately (Hit); an
// entry already being evaluated by another caller is waited for (Shared); a
// cold key runs compute on the calling goroutine, stores the result, and
// wakes any waiters (Computed). The returned entry is shared and read-only:
// a hit returns the resident entry, a sharer the flight's, and the winner
// compute's own, which the cache stores.
//
// A key of a newer epoch than any seen before first drops every resident
// entry; a key of an older epoch is computed and neither stored nor shared.
// Errors are never cached: a failed compute is handed to this caller and to
// every waiter of the flight, and the next Do for the key evaluates afresh.
// On a nil cache, Do simply runs compute.
func (c *Cache) Do(k Key, compute func() (*Entry, error)) (*Entry, Outcome, error) {
	if c == nil {
		ent, err := compute()
		return ent, Computed, err
	}
	c.mu.Lock()
	if k.Epoch > c.epoch {
		c.epoch = k.Epoch
		clear(c.resident)
		c.lru.Init()
		c.bytes.Store(0)
		c.entries.Store(0)
	}
	if k.Epoch < c.epoch {
		c.mu.Unlock()
		c.misses.Add(1)
		ent, err := compute()
		return ent, Computed, err
	}
	if el, ok := c.resident[k]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*node).ent
		c.mu.Unlock()
		c.hits.Add(1)
		return ent, Hit, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		c.waiting.Add(1)
		<-f.done
		c.waiting.Add(-1)
		c.shared.Add(1)
		if f.err != nil {
			return nil, Shared, f.err
		}
		return f.ent, Shared, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	c.misses.Add(1)
	settled := false
	// A panicking compute must still settle the flight, or every waiter
	// would block forever; the panic then propagates to this caller.
	defer func() {
		if !settled {
			f.err = fmt.Errorf("cache: evaluation panicked")
			c.settle(k, f, nil)
		}
	}()
	ent, err := compute()
	settled = true
	if err != nil {
		f.err = err
		c.settle(k, f, nil)
		return nil, Computed, err
	}
	c.settle(k, f, ent)
	return ent, Computed, nil
}

// settle removes the flight, stores the entry when the evaluation succeeded
// and its epoch is still the newest, and wakes the waiters.
func (c *Cache) settle(k Key, f *flight, stored *Entry) {
	f.ent = stored
	c.mu.Lock()
	delete(c.flights, k)
	if stored != nil && k.Epoch == c.epoch {
		c.storeLocked(k, stored)
	}
	c.mu.Unlock()
	close(f.done)
}

// storeLocked inserts the entry at the front of the recency list and evicts
// from the tail until the cache fits its budget again. An entry that alone
// exceeds the budget is not cached. The caller holds c.mu.
func (c *Cache) storeLocked(k Key, ent *Entry) {
	b := ent.ApproxBytes()
	if b > c.budget {
		return
	}
	c.resident[k] = c.lru.PushFront(&node{key: k, ent: ent, bytes: b})
	c.bytes.Add(b)
	c.entries.Add(1)
	for c.bytes.Load() > c.budget {
		n := c.lru.Remove(c.lru.Back()).(*node)
		delete(c.resident, n.key)
		c.bytes.Add(-n.bytes)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// Stats is a point-in-time snapshot of the cache accounting.
type Stats struct {
	// Hits served from the LRU; Misses evaluated by the caller; Shared
	// collapsed onto another caller's in-flight evaluation.
	Hits, Misses, Shared int64
	// Evictions counts entries dropped by the byte budget; entries dropped
	// because a newer epoch arrived are not evictions.
	Evictions int64
	// Bytes and Entries describe the resident set, all of the newest epoch
	// (approximate accounting).
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

// Stats reads the counters (atomics; never takes the cache's mutex). A nil
// cache reports zeros.
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
