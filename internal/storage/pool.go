// Package storage models the disk subsystem underneath the TPR-tree: a page
// store with an LRU buffer pool and physical-I/O accounting.
//
// The PDR paper evaluates I/O analytically — a 4 KB page size, a buffer of
// 10% of the dataset size, and 10 ms charged per random disk access — rather
// than measuring a physical disk. This package reproduces exactly that cost
// model: page payloads live in memory, but every buffer miss is counted as a
// physical read (and every dirty eviction as a physical write), and Stats
// converts the counts to time under a configurable per-I/O charge.
package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pdr/internal/telemetry"
)

// PageID identifies a page in the store. The zero PageID is never allocated
// and can be used as a null reference.
type PageID uint64

// DefaultPageSize is the paper's page size (4 KB).
const DefaultPageSize = 4096

// DefaultRandomIO is the paper's charge per random disk access (10 ms).
const DefaultRandomIO = 10 * time.Millisecond

// Stats aggregates physical and logical I/O counters.
type Stats struct {
	// Reads is the number of physical page reads (buffer misses).
	Reads int64
	// Writes is the number of physical page writes (dirty evictions and
	// flushes).
	Writes int64
	// Hits is the number of logical reads served from the buffer.
	Hits int64
}

// RandomIOs returns the total number of physical accesses.
func (s Stats) RandomIOs() int64 { return s.Reads + s.Writes }

// IOTime returns the modelled time spent in physical I/O at the given charge
// per access.
func (s Stats) IOTime(perIO time.Duration) time.Duration {
	return time.Duration(s.RandomIOs()) * perIO
}

// Sub returns s - t, the delta between two snapshots.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Hits: s.Hits - t.Hits}
}

// HitRatio returns the fraction of logical reads served from the buffer
// (hits / (hits + physical reads)), or 0 before any read. Both /v1/stats
// and the pdr_pool_hit_ratio gauge compute it from Pool.Stats, so the two
// surfaces always agree.
func (s Stats) HitRatio() float64 {
	logical := s.Hits + s.Reads
	if logical == 0 {
		return 0
	}
	return float64(s.Hits) / float64(logical)
}

// Pool is a page store fronted by an LRU buffer. A Pool with capacity <= 0
// never evicts (an effectively infinite buffer); pages still incur one read
// when first faulted after a Drop or when written back.
//
// Pool is safe for concurrent use: the buffer structures are guarded by a
// short-critical-section mutex (an LRU must reorder on every read, so reads
// cannot be lock-free), while the I/O counters are atomics so Stats and a
// /metrics scrape of them never take the lock. Concurrent readers therefore
// serialize only for the few pointer moves of the LRU touch, not for each
// other's page processing.
type Pool struct {
	capacity int // max resident pages; <=0 means unlimited; immutable

	mu sync.Mutex
	// disk holds the authoritative page payloads; guarded by mu.
	disk map[PageID]any
	// lru orders resident pages, front = most recently used, values are
	// PageID; guarded by mu.
	lru *list.List
	// index maps resident pages to their lru element; guarded by mu.
	index map[PageID]*list.Element
	// dirty marks pages that must be written back on eviction; guarded by mu.
	dirty map[PageID]bool
	// nextID is the page allocation cursor; guarded by mu.
	nextID PageID

	// I/O counters: atomic, lock-free for readers (see Stats).
	reads, writes, hits atomic.Int64
}

// NewPool creates a pool whose buffer holds at most capacityPages pages
// (unlimited if capacityPages <= 0).
func NewPool(capacityPages int) *Pool {
	return &Pool{
		capacity: capacityPages,
		disk:     make(map[PageID]any),
		lru:      list.New(),
		index:    make(map[PageID]*list.Element),
		dirty:    make(map[PageID]bool),
	}
}

// RegisterMetrics exposes the pool's I/O accounting on reg. Every series
// is read from the pool at scrape time, so /metrics reports the counts
// since the pool was built, the same numbers Stats returns.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("pdr_pool_reads_total", "Physical page reads (buffer misses).", p.reads.Load)
	reg.CounterFunc("pdr_pool_writes_total", "Physical page writes (dirty evictions and flushes).", p.writes.Load)
	reg.CounterFunc("pdr_pool_hits_total", "Logical reads served from the buffer.", p.hits.Load)
	reg.GaugeFunc("pdr_pool_pages", "Pages currently allocated in the store.",
		func() float64 { return float64(p.NumPages()) })
	reg.GaugeFunc("pdr_pool_hit_ratio", "Fraction of logical reads served from the buffer.",
		func() float64 { return p.Stats().HitRatio() })
}

// Alloc reserves a fresh page ID with a nil payload. The new page is
// considered resident and dirty (it must be written before eviction).
func (p *Pool) Alloc() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	id := p.nextID
	p.disk[id] = nil
	p.touchLocked(id)
	p.dirty[id] = true
	return id
}

// Read returns the payload of page id, counting a buffer hit or a physical
// read. It reports an error for unknown pages.
func (p *Pool) Read(id PageID) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.disk[id]
	if !ok {
		return nil, fmt.Errorf("storage: read of unknown page %d", id)
	}
	if _, resident := p.index[id]; resident {
		p.hits.Add(1)
		p.touchLocked(id)
		return v, nil
	}
	p.reads.Add(1)
	p.touchLocked(id)
	return v, nil
}

// Write replaces the payload of page id and marks it dirty. Writing a page
// that is not resident faults it in (counted as a physical read would be
// unfair — the writer produces the full page — so no read is charged).
func (p *Pool) Write(id PageID, v any) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.disk[id]; !ok {
		return fmt.Errorf("storage: write to unknown page %d", id)
	}
	p.disk[id] = v
	p.touchLocked(id)
	p.dirty[id] = true
	return nil
}

// Free releases page id entirely.
func (p *Pool) Free(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.index[id]; ok {
		p.lru.Remove(el)
		delete(p.index, id)
	}
	delete(p.dirty, id)
	delete(p.disk, id)
}

// Flush writes back all dirty resident pages, counting one physical write
// per page.
func (p *Pool) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, d := range p.dirty {
		if d {
			p.writes.Add(1)
			p.dirty[id] = false
		}
	}
}

// Drop empties the buffer without counting writes (a cold restart); the next
// Read of every page will miss.
func (p *Pool) Drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.Init()
	p.index = make(map[PageID]*list.Element)
	for id := range p.dirty {
		p.dirty[id] = false
	}
}

// Stats returns a snapshot of the I/O counters. It is lock-free: the
// counters are atomics, so a stats read (or a /metrics scrape) never stalls
// queries. The three counters are loaded individually, so a snapshot taken
// while queries run may be off by the odd in-flight increment — exact totals
// belong to quiescent moments, which is how every experiment reads them.
func (p *Pool) Stats() Stats {
	return Stats{Reads: p.reads.Load(), Writes: p.writes.Load(), Hits: p.hits.Load()}
}

// NumPages returns the number of allocated pages.
func (p *Pool) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.disk)
}

// Resident returns the number of pages currently in the buffer.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// touchLocked marks id most-recently-used, evicting if over capacity. The
// caller must hold mu.
func (p *Pool) touchLocked(id PageID) {
	if el, ok := p.index[id]; ok {
		p.lru.MoveToFront(el)
	} else {
		p.index[id] = p.lru.PushFront(id)
	}
	if p.capacity <= 0 {
		return
	}
	for p.lru.Len() > p.capacity {
		back := p.lru.Back()
		victim := back.Value.(PageID)
		if victim == id {
			// Never evict the page being touched.
			break
		}
		p.lru.Remove(back)
		delete(p.index, victim)
		if p.dirty[victim] {
			p.writes.Add(1)
			p.dirty[victim] = false
		}
	}
}
