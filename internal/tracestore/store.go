// Package tracestore holds completed request traces in bounded memory so
// a slow-query log line or an X-Pdr-Trace-Id response header can be
// resolved to its full span tree after the fact (GET /debug/traces/{id}).
//
// Retention is two-tier and bounded on both tiers: a fixed-capacity ring
// of the most recent traces (the "what is the server doing right now"
// view) plus a fixed-capacity reservoir that always keeps the slowest
// traces seen since startup (the "what should I be worried about" view —
// exactly the traces a recency ring would have rotated out by the time
// anyone looks). A trace stays resolvable while either tier references
// it; eviction from both drops it for good and bumps the eviction
// counter. All methods are safe for concurrent use.
package tracestore

import (
	"slices"
	"sync"
	"time"

	"pdr/internal/telemetry"
)

// Record is one stored trace with its request envelope.
type Record struct {
	ID       telemetry.TraceID
	Time     time.Time // when the request finished; span offsets count from Time - Duration
	Route    string
	Method   string // HTTP method
	URL      string
	Status   int
	Duration time.Duration
	// ReplyBytes is the size of the response body.
	ReplyBytes int
	Root       *telemetry.Span
}

// entry wraps a record with its retention bookkeeping.
type entry struct {
	rec    *Record
	inRing bool
	inSlow bool
}

// Store is the bounded in-memory trace store.
type Store struct {
	mu sync.Mutex
	// ring holds the most recent traces; guarded by mu.
	ring []*entry
	next int
	// slow is a min-heap on Duration holding the slowest traces seen;
	// guarded by mu. The heap minimum is the eviction candidate, so the
	// reservoir always keeps the slowest.
	slow []*entry
	// byID resolves trace IDs while a record is retained; guarded by mu.
	byID map[telemetry.TraceID]*entry

	ringCap, slowCap int
	evictions        int64
}

// New builds a store keeping the ringCap most recent and the slowCap
// slowest traces. Capacities below 1 are raised to 1 — a Store always
// retains something; disable tracing at the sampler, not here.
func New(ringCap, slowCap int) *Store {
	if ringCap < 1 {
		ringCap = 1
	}
	if slowCap < 1 {
		slowCap = 1
	}
	return &Store{
		ring:    make([]*entry, 0, ringCap),
		slow:    make([]*entry, 0, slowCap),
		byID:    make(map[telemetry.TraceID]*entry, ringCap+slowCap),
		ringCap: ringCap,
		slowCap: slowCap,
	}
}

// RegisterMetrics exposes the store's size and eviction count on reg, read
// through Len and Evictions at scrape time.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("pdr_trace_store_entries", "Traces currently resolvable in the store.",
		func() float64 { return float64(s.Len()) })
	reg.CounterFunc("pdr_trace_evicted_total", "Traces dropped from both the ring and the slow reservoir.",
		s.Evictions)
}

// Add retains rec. The record and its span tree must be complete —
// readers may render them concurrently from other goroutines.
func (s *Store) Add(rec *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &entry{rec: rec, inRing: true}
	if len(s.ring) < s.ringCap {
		s.ring = append(s.ring, e)
	} else {
		old := s.ring[s.next]
		old.inRing = false
		s.ring[s.next] = e
		s.maybeDropLocked(old)
	}
	s.next = (s.next + 1) % s.ringCap
	s.byID[rec.ID] = e

	if len(s.slow) < s.slowCap {
		e.inSlow = true
		s.slow = append(s.slow, e)
		s.siftUpLocked(len(s.slow) - 1)
	} else if rec.Duration > s.slow[0].rec.Duration {
		fastest := s.slow[0]
		fastest.inSlow = false
		e.inSlow = true
		s.slow[0] = e
		s.siftDownLocked(0)
		s.maybeDropLocked(fastest)
	}
}

// maybeDropLocked forgets a record once neither tier references it.
func (s *Store) maybeDropLocked(e *entry) {
	if e.inRing || e.inSlow {
		return
	}
	delete(s.byID, e.rec.ID)
	s.evictions++
}

// siftUpLocked restores the min-heap property upward from i.
func (s *Store) siftUpLocked(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.slow[parent].rec.Duration <= s.slow[i].rec.Duration {
			return
		}
		s.slow[parent], s.slow[i] = s.slow[i], s.slow[parent]
		i = parent
	}
}

// siftDownLocked restores the min-heap property downward from i.
func (s *Store) siftDownLocked(i int) {
	n := len(s.slow)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && s.slow[l].rec.Duration < s.slow[min].rec.Duration {
			min = l
		}
		if r < n && s.slow[r].rec.Duration < s.slow[min].rec.Duration {
			min = r
		}
		if min == i {
			return
		}
		s.slow[i], s.slow[min] = s.slow[min], s.slow[i]
		i = min
	}
}

// Get resolves a trace ID, nil when unknown or already evicted.
func (s *Store) Get(id telemetry.TraceID) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return nil
	}
	return e.rec
}

// Recent returns up to max records, newest first.
func (s *Store) Recent(max int) []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	if max < n {
		n = max
	}
	if n <= 0 {
		return nil
	}
	out := make([]*Record, 0, n)
	// next-1 is the newest slot; walk backwards with wrap-around.
	for i := 0; i < n; i++ {
		idx := (s.next - 1 - i + len(s.ring)) % len(s.ring)
		out = append(out, s.ring[idx].rec)
	}
	return out
}

// Slowest returns up to max records, slowest first.
func (s *Store) Slowest(max int) []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.slow)
	if max < n {
		n = max
	}
	if n <= 0 {
		return nil
	}
	all := make([]*Record, 0, len(s.slow))
	for _, e := range s.slow {
		all = append(all, e.rec)
	}
	slices.SortFunc(all, func(a, b *Record) int {
		switch {
		case a.Duration > b.Duration:
			return -1
		case a.Duration < b.Duration:
			return 1
		default:
			return 0
		}
	})
	return all[:n]
}

// Len returns the number of resolvable traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Evictions returns the number of traces dropped from both tiers.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
