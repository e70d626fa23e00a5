// Package parallel provides the bounded worker pool underneath the PDR
// engine's fan-out points: the per-timestamp snapshots of an interval query
// and the per-window plane sweeps of the refinement step. Both are
// embarrassingly parallel (paper Sec. 5.3 refines each candidate cell with an
// independent sweep; Definition 5 unions independent snapshots), so the only
// engineering problems are bounding the goroutine count and staying
// deadlock-free when fan-outs nest.
//
// The pool is a semaphore over helper goroutines with a caller-runs
// guarantee: ForEach always makes progress on the calling goroutine, and
// helpers are acquired non-blockingly. A nested ForEach that finds the pool
// saturated simply runs its items inline, so interval queries that fan out
// into refinement fan-outs can never deadlock, and the process-wide number
// of extra goroutines stays bounded by the pool size regardless of how many
// queries run concurrently.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pdr/internal/telemetry"
)

// Pool is a bounded supply of helper goroutines shared by every fan-out of
// one engine. The zero value is unusable; use New. All methods are safe for
// concurrent use.
type Pool struct {
	workers int
	// slots bounds the helper goroutines alive across all concurrent
	// ForEach calls; each helper holds one slot for its lifetime, so
	// len(slots) is the number of busy helpers.
	slots chan struct{}
}

// New builds a pool that runs at most workers items concurrently per
// ForEach (the caller's goroutine plus workers-1 helpers). workers <= 0
// selects GOMAXPROCS, the hardware parallelism available to the process;
// workers == 1 makes every ForEach run sequentially on the caller.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, slots: make(chan struct{}, workers-1)}
}

// Workers returns the configured parallelism.
func (p *Pool) Workers() int { return p.workers }

// RegisterMetrics exposes the pool's size and its busy helpers on reg, both
// read at scrape time.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("pdr_parallel_workers",
		"Configured query worker-pool size (core.Config.Workers, 0 resolved to GOMAXPROCS).",
		func() float64 { return float64(p.workers) })
	reg.GaugeFunc("pdr_parallel_workers_busy",
		"Worker-pool helper goroutines currently running fan-out items.",
		func() float64 { return float64(len(p.slots)) })
}

// ForEach runs fn(i) for every i in [0, n), using up to Workers()
// goroutines, and returns when all calls have finished. Work is distributed
// dynamically (an atomic cursor), so uneven item costs balance themselves.
// The caller's goroutine always participates: if the pool is saturated by
// other ForEach calls, the loop degrades to sequential execution instead of
// blocking, which keeps nested fan-outs deadlock-free. A panic in any fn is
// re-raised on the caller after the remaining workers drain.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var cursor atomic.Int64
	var panicked atomic.Pointer[recovered]
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				// First panic wins; later items are abandoned by the
				// cursor check below.
				panicked.CompareAndSwap(nil, &recovered{value: r})
				cursor.Store(int64(n))
			}
		}()
		for {
			i := cursor.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}

	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
spawn:
	for k := 0; k < helpers; k++ {
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.slots
					wg.Done()
				}()
				run()
			}()
		default:
			// Saturated: the caller-runs loop below covers everything.
			break spawn
		}
	}
	run()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r.value)
	}
}

// ForEachSpan is ForEach with per-item tracing: item i runs bracketed by
// Begin/End on spans.At(i), so every fan-out records one child span per
// item with its own start offset and duration. Span slots come from the
// parent's Fork, pre-appended in index order — the tree shape is
// deterministic at any worker count, only the timings differ. A nil
// spans traces nothing and costs nothing (nil-receiver no-ops), so call
// sites need no "is tracing on" branches.
func (p *Pool) ForEachSpan(n int, spans telemetry.Spans, fn func(i int, sp *telemetry.Span)) {
	p.ForEach(n, func(i int) {
		sp := spans.At(i)
		sp.Begin()
		fn(i, sp)
		sp.End()
	})
}

// recovered boxes a recovered panic value for atomic hand-off.
type recovered struct{ value any }
