package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"pdr/internal/cache"
	"pdr/internal/dh"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/stopwatch"
	"pdr/internal/storage"
	"pdr/internal/sweep"
	"pdr/internal/telemetry"
)

// intervalScratch is frScratch for the interval fan-out: per-timestamp
// sub-result and error slots.
type intervalScratch struct {
	subs []*Result
	errs []error
}

var intervalScratches = sync.Pool{New: func() any { return new(intervalScratch) }}

// pointBufs pools point buffers: the FR gather's per-subtree finds, each
// run's merge of its window's objects, and the brute force's sweep input
// (the sweep reads the points and retains nothing).
var pointBufs = sync.Pool{New: func() any { return new([]geom.Point) }}

// grow returns buf resized to n zero slots, reallocating only when the
// capacity is insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// releaseIntervalScratch clears the slot pointers (so the pool never pins
// sub-results or errors) and returns the scratch.
func releaseIntervalScratch(sc *intervalScratch) {
	for i := range sc.subs {
		sc.subs[i] = nil
	}
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	intervalScratches.Put(sc)
}

// Method selects the query evaluation strategy.
type Method int

const (
	// FR is the exact filtering-refinement method (paper Sec. 5).
	FR Method = iota
	// PA is the Chebyshev polynomial approximation (paper Sec. 6).
	PA
	// DHOptimistic answers with accepted plus candidate histogram cells
	// (no false negatives; paper Sec. 7.2).
	DHOptimistic
	// DHPessimistic answers with accepted cells only (no false positives).
	DHPessimistic
	// BruteForce sweeps all live objects over the whole area — the exact
	// ground truth, independent of the histogram and the index.
	BruteForce
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case FR:
		return "FR"
	case PA:
		return "PA"
	case DHOptimistic:
		return "DH-opt"
	case DHPessimistic:
		return "DH-pess"
	case BruteForce:
		return "BF"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod is the inverse of Method.String, case-insensitive; "" selects
// FR, the exact method. It is the one method-name table of the service and
// the command-line tools.
func ParseMethod(v string) (Method, error) {
	if v == "" {
		return FR, nil
	}
	for m := FR; m <= BruteForce; m++ {
		if strings.EqualFold(v, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", v)
}

// Query is a snapshot PDR query (rho, l, qt): all regions every point of
// which has at least rho*l^2 objects in its l-square neighborhood at
// timestamp qt.
type Query struct {
	Rho float64
	L   float64
	At  motion.Tick
}

// RelativeThreshold converts the paper's relative density threshold varrho
// (1..5 in the evaluation) to an absolute density for n objects over area:
// rho = n * varrho / area (the paper's area is 10^6 square miles).
func RelativeThreshold(n int, varrho float64, area geom.Rect) float64 {
	return float64(n) * varrho / area.Area()
}

// Result carries a query answer and its measured costs.
type Result struct {
	Method Method
	Region geom.Region
	// Area is the area Region covers. A snapshot answer's rectangles are
	// disjoint by construction (geom.DisjointArea), so it is their plain sum;
	// an interval answer unions overlapping snapshots and pays for the exact
	// measure (geom.UnionArea).
	Area float64
	// CPU is the measured computation time — for interval queries the
	// *summed* work across per-timestamp snapshots, which exceeds elapsed
	// time when snapshots run on the worker pool.
	CPU time.Duration
	// Wall is the elapsed wall-clock time of the call: equal to CPU for a
	// sequential snapshot, below the summed CPU for a parallel interval.
	// Speedups read directly off this field.
	Wall time.Duration
	// Cached reports the answer was served from the result cache (for an
	// interval: every per-timestamp snapshot was). CachedCPU accumulates the
	// evaluation cost recorded when the reused entries were first computed —
	// the work the cache saved. Cached answers charge zero IOs.
	Cached    bool
	CachedCPU time.Duration
	// IOs is the number of physical page accesses the query incurred
	// (only FR touches the index); IOTime charges them at the configured
	// per-access cost; Total = CPU + IOTime, the paper's total query cost.
	IOs    int64
	IOTime time.Duration
	// Filter-step diagnostics (FR and the DH baselines).
	Accepted, Rejected, Candidates int
	// ObjectsRetrieved counts index results fetched during refinement.
	ObjectsRetrieved int
}

// Total returns CPU + IOTime.
func (r *Result) Total() time.Duration { return r.CPU + r.IOTime }

// failed counts one failed query call and returns its error. Only the public
// entry points (SnapshotTraced, IntervalTraced, PastSnapshotTraced) call it,
// so pdr_engine_query_errors_total moves once per failed request however many
// snapshots the request fanned out.
func (s *Server) failed(err error) error {
	if s.met != nil {
		s.met.errors.Inc()
	}
	return err
}

// CheckParams rejects a density threshold rho and a neighborhood edge l that
// no query answers: rho must be finite and non-negative, l finite and
// positive. NaN passes every range comparison, so it is tested for by name.
func CheckParams(rho, l float64) error {
	switch {
	case rho < 0:
		return fmt.Errorf("core: negative density threshold %g", rho)
	case math.IsNaN(rho) || math.IsInf(rho, 0):
		return fmt.Errorf("core: non-finite density threshold %g", rho)
	case l <= 0:
		return fmt.Errorf("core: non-positive neighborhood edge %g", l)
	case math.IsNaN(l) || math.IsInf(l, 0):
		return fmt.Errorf("core: non-finite neighborhood edge %g", l)
	}
	return nil
}

// Check reports the error an evaluation of q with m would stop at before it
// computes anything: the query's parameters and timestamp, the PA surfaces'
// l, the histogram cell against l/2. It counts no query and reads no page,
// so a caller can vet a query it will evaluate later (a standing query).
func (s *Server) Check(q Query, m Method) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkLocked(q, m)
}

// checkLocked is Check under the read lock; every snapshot evaluation starts
// with it.
func (s *Server) checkLocked(q Query, m Method) error {
	if err := s.validateLocked(q); err != nil {
		return err
	}
	switch m {
	case FR, DHOptimistic, DHPessimistic:
		return s.hist.CheckEdge(q.L)
	case PA:
		if s.surf == nil {
			return errPADisabled
		}
		// lint:ignore floateq config identity: the surfaces answer only the
		// exact l they were built for; a nearly-equal l must be rejected too.
		if q.L != s.surf.L() {
			return fmt.Errorf("core: PA surfaces are built for l=%g, query asked l=%g (the approximation method fixes l in advance; use FR for other edges)",
				s.surf.L(), q.L)
		}
		return nil
	case BruteForce:
		return nil
	}
	return fmt.Errorf("core: unknown method %d", m)
}

func (s *Server) validateLocked(q Query) error {
	now := s.Now()
	if err := CheckParams(q.Rho, q.L); err != nil {
		return err
	}
	if q.At < now || q.At > now+s.Horizon() {
		return fmt.Errorf("core: query time %d outside [%d, %d]", q.At, now, now+s.Horizon())
	}
	return nil
}

// Snapshot answers the snapshot PDR query q with the given method. Any
// number of Snapshot/Interval calls may run concurrently; they serialize
// only against mutations.
func (s *Server) Snapshot(q Query, m Method) (*Result, error) {
	return s.SnapshotTraced(q, m, nil)
}

// SnapshotTraced is Snapshot recording its evaluation as a child span of
// sp: the phase breakdown, the per-window refinement fan-out, and cache
// outcomes all land in the span tree. A nil sp traces nothing and
// allocates nothing — Snapshot simply passes nil.
func (s *Server) SnapshotTraced(q Query, m Method, sp *telemetry.Span) (*Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	esp := sp.Child("snapshot")
	esp.SetAttr("method", m.String())
	esp.SetAttrInt("at", int64(q.At))
	res, err := s.snapshotLocked(q, m, true, esp)
	esp.End()
	if err != nil {
		return nil, s.failed(err)
	}
	if s.met != nil {
		s.met.observe(res)
	}
	return res, nil
}

// snapshotLocked answers one snapshot query under the read locks, serving
// from the result cache when one is configured. Between mutations the answer
// for (rho, l, qt, method) is immutable, so it is memoized under the current
// epoch: a hit returns the stored region and filter counters with zero IOs
// (no page is touched) and CachedCPU recording the evaluation the cache
// saved, while concurrent identical queries collapse onto one evaluation via
// the cache's singleflight layer. Cached and computed answers are
// bit-identical — the cache stores deep copies, so neither side can mutate
// the other's region.
func (s *Server) snapshotLocked(q Query, m Method, trackIO bool, sp *telemetry.Span) (*Result, error) {
	if err := s.checkLocked(q, m); err != nil {
		return nil, err
	}
	if s.qcache == nil {
		return s.evaluateLocked(q, m, trackIO, sp)
	}
	k := cache.Key{Epoch: s.epoch.Load(), At: int64(q.At), Rho: q.Rho, L: q.L, Method: uint8(m)}
	sw := stopwatch.Start()
	var computed *Result // set only when this call wins the flight
	ent, outcome, err := s.qcache.Do(k, func() (*cache.Entry, error) {
		res, err := s.evaluateLocked(q, m, trackIO, sp)
		if err != nil {
			return nil, err
		}
		computed = res
		return &cache.Entry{
			Region:           res.Region,
			CPU:              res.CPU,
			Accepted:         res.Accepted,
			Rejected:         res.Rejected,
			Candidates:       res.Candidates,
			ObjectsRetrieved: res.ObjectsRetrieved,
			TraceID:          uint64(sp.TraceID()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if outcome == cache.Computed {
		return computed, nil
	}
	elapsed := sw.Elapsed()
	// The answer came from the cache (or a shared flight): the span tree
	// records the outcome plus the trace that originally paid for the
	// evaluation, so a fast cached query links to the slow one that built
	// its answer.
	csp := sp.Child("cache")
	csp.SetAttr("outcome", outcome.String())
	if csp != nil && ent.TraceID != 0 {
		csp.SetAttr("sourceTrace", telemetry.TraceID(ent.TraceID).String())
	}
	csp.End()
	return &Result{
		Method:           m,
		Region:           ent.Region,
		Area:             geom.DisjointArea(ent.Region),
		CPU:              elapsed,
		Wall:             elapsed,
		Cached:           true,
		CachedCPU:        ent.CPU,
		Accepted:         ent.Accepted,
		Rejected:         ent.Rejected,
		Candidates:       ent.Candidates,
		ObjectsRetrieved: ent.ObjectsRetrieved,
	}, nil
}

// evaluateLocked runs one snapshot evaluation under the read locks. With
// trackIO it charges the query the buffer pools' physical-I/O delta across
// its evaluation — exact in isolation, approximate attribution when other
// queries overlap (the pool counters are engine-global). Interval fan-outs
// pass trackIO=false and charge I/O once at the interval level instead, so
// concurrent sub-snapshots never double-count each other's page accesses.
func (s *Server) evaluateLocked(q Query, m Method, trackIO bool, sp *telemetry.Span) (*Result, error) {
	res := &Result{Method: m}
	var ioBefore storage.Stats
	if trackIO {
		ioBefore = s.PoolStats()
	}
	sw := stopwatch.Start()
	var err error
	switch m {
	case FR:
		err = s.snapshotFRLocked(q, res, sp)
	case PA:
		err = s.snapshotPALocked(q, res, sp)
	case DHOptimistic, DHPessimistic:
		err = s.snapshotDHLocked(q, m, res, sp)
	case BruteForce:
		s.snapshotBFLocked(q, res, sp)
	}
	if err != nil {
		return nil, err
	}
	res.Area = geom.DisjointArea(res.Region)
	res.CPU = sw.Elapsed()
	res.Wall = res.CPU // a snapshot evaluation is one sequential stopwatch
	if trackIO {
		res.IOs = s.PoolStats().Sub(ioBefore).RandomIOs()
		res.IOTime = time.Duration(res.IOs) * storage.DefaultRandomIO
	}
	sp.SetAttrInt("ios", res.IOs)
	return res, nil
}

// filterLocked runs the filter step over the histogram.
func (s *Server) filterLocked(q Query) (*dh.FilterResult, error) {
	return s.hist.Filter(q.At, q.Rho, q.L)
}

// snapshotFRLocked runs filtering over the histogram and plane-sweep
// refinement over index results for the candidate cells. The paper refines
// cell by cell, fetching each cell's grown window on its own; here the unit
// of refinement is a row run — the candidates of one histogram row, left to
// right, for as long as the next one's grown window still touches the last
// one's (gap <= l) — because neighbours' windows are nearly the same window:
// one sweep (sweep.DenseRectsRowSorted) over the run's grown bounding box
// (exactly the union of its cells' windows) replaces one per cell. The
// rectangles are still produced and coalesced cell by cell, so the answer is
// bit-identical to the per-cell pipeline's.
//
// Each piece of work is done once per snapshot. The windows of adjacent rows
// overlap too (by l/(cell+l)), so the objects are fetched by one index
// descent over all the runs' windows together (tprtree.Split, pruned by
// frScratch.touches): every page is read once and every object retrieved
// once (ObjectsRetrieved counts them). The gather is binned by the histogram
// row that holds each object and every bin is put in X order once
// (frScratch.gather); a run's objects — exactly those of its closed grown
// window — are then a linear merge of the X ranges of the few bins its
// window spans (frScratch.runPoints), with no sort.
//
// The descent, the bins' X order, the runs and the final union
// (geom.CoalesceSplit) are each split over the worker pool. Runs land in
// per-run slots merged in run order, and the split union is the serial one
// for disjoint rectangles, so the output is byte-identical to the sequential
// path at any worker count — and so are the work counters, which depend on
// the windows alone.
func (s *Server) snapshotFRLocked(q Query, res *Result, sp *telemetry.Span) error {
	ph := sp.Child("filter")
	fr, err := s.filterLocked(q)
	if err != nil {
		ph.End()
		return err
	}
	res.Accepted, res.Rejected, res.Candidates = fr.CountMarks()
	region := fr.AcceptedRegion()

	cands := fr.CandidatesByRow()
	fr.Release()
	sc := frScratches.Get().(*frScratch)
	defer sc.release()
	sc.plan(cands, s.hist, q.L)
	runs := len(sc.windows)
	ph.SetAttrInt("accepted", int64(res.Accepted))
	ph.SetAttrInt("rejected", int64(res.Rejected))
	ph.SetAttrInt("candidates", int64(res.Candidates))
	ph.End()

	ph = sp.Child("gather")
	if runs > 0 {
		res.ObjectsRetrieved = sc.gather(s, q.At)
	}
	ph.SetAttrInt("retrieved", int64(res.ObjectsRetrieved))
	ph.End()

	ph = sp.Child("refine")
	ph.SetAttrInt("windows", int64(runs))
	if s.met != nil {
		s.met.refineFanout.Observe(float64(runs))
	}
	// One child span per run, pre-allocated in run order so the tree shape is
	// identical at any worker count; each worker fills only its own slot. The
	// slots themselves come from the scatter/gather pool.
	slots := ph.Fork("window", runs)
	sc.parts = grow(sc.parts, runs)
	parts := sc.parts
	s.par.ForEachSpan(runs, slots, func(ri int, wsp *telemetry.Span) {
		parts[ri] = sc.refineRun(ri, q, wsp)
	})
	for _, part := range parts {
		region = append(region, part...)
	}
	ph.End()
	ph = sp.Child("union")
	// region is appended fresh above (AcceptedRegion allocates per call), so
	// the union coalesces in place; its rectangles are disjoint, so the split
	// union is the serial one.
	res.Region = geom.CoalesceSplit(region, s.par.Workers(), s.par.ForEach)
	ph.End()
	return nil
}

// snapshotPALocked needs the surfaces and their l, which checkLocked has
// vetted.
func (s *Server) snapshotPALocked(q Query, res *Result, sp *telemetry.Span) error {
	ph := sp.Child("pa-eval")
	region, walk, err := s.surf.DenseRegionStats(q.At, q.Rho)
	ph.SetAttrInt("boxes", int64(walk.Boxes))
	ph.SetAttrInt("leaves", int64(walk.Leaves))
	ph.SetAttrInt("rects", int64(walk.Rects))
	ph.End()
	if err != nil {
		return err
	}
	res.Region = region
	return nil
}

func (s *Server) snapshotDHLocked(q Query, m Method, res *Result, sp *telemetry.Span) error {
	ph := sp.Child("filter")
	fr, err := s.filterLocked(q)
	if err != nil {
		ph.End()
		return err
	}
	res.Accepted, res.Rejected, res.Candidates = fr.CountMarks()
	ph.SetAttrInt("accepted", int64(res.Accepted))
	ph.SetAttrInt("rejected", int64(res.Rejected))
	ph.SetAttrInt("candidates", int64(res.Candidates))
	ph.End()
	ph = sp.Child("union")
	if m == DHOptimistic {
		res.Region = fr.OptimisticRegion()
	} else {
		res.Region = fr.PessimisticRegion()
	}
	fr.Release()
	ph.End()
	return nil
}

// snapshotBFLocked is the brute force, for a live timestamp and a past one
// alike: one global sweep over the position at q.At of every movement that
// was current then — the archive's, when history is kept, plus the live
// movements referenced by q.At — inside the monitored area (the population
// contract). It touches neither the histogram nor the index.
func (s *Server) snapshotBFLocked(q Query, res *Result, sp *telemetry.Span) {
	ph := sp.Child("refine")
	pb := pointBufs.Get().(*[]geom.Point)
	points := (*pb)[:0]
	// Every archived segment ends by the clock, so only a past q.At can
	// find one.
	if s.hst != nil && q.At < s.Now() {
		points = append(points, s.hst.PointsAt(q.At)...)
	}
	for _, st := range s.dir.m {
		if st.Ref > q.At {
			continue // reported after q.At: it did not exist yet
		}
		if p := st.PositionAt(q.At); s.cfg.Area.Contains(p) {
			points = append(points, p)
		}
	}
	res.ObjectsRetrieved = len(points)
	ph.SetAttrInt("retrieved", int64(res.ObjectsRetrieved))
	ph.End()
	ph = sp.Child("union")
	res.Region = geom.CoalesceInPlace(sweep.DenseRects(points, s.cfg.Area, q.Rho, q.L))
	*pb = points
	pointBufs.Put(pb)
	ph.End()
}

// PastSnapshot answers the snapshot PDR query q for a timestamp in the
// past, exactly, from the movement archive plus the still-active movements
// that were already current at q.At. Requires Config.KeepHistory; q.At must
// precede the server clock (use Snapshot for now and the future).
func (s *Server) PastSnapshot(q Query) (*Result, error) {
	return s.PastSnapshotTraced(q, nil)
}

// PastSnapshotTraced is PastSnapshot recording its evaluation as a child
// span of sp (nil traces nothing).
func (s *Server) PastSnapshotTraced(q Query, sp *telemetry.Span) (*Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.cfg.KeepHistory {
		return nil, s.failed(fmt.Errorf("core: history is disabled (set Config.KeepHistory)"))
	}
	if now := s.Now(); q.At >= now {
		return nil, s.failed(fmt.Errorf("core: PastSnapshot is for t < now (%d); use Snapshot", now))
	}
	if err := CheckParams(q.Rho, q.L); err != nil {
		return nil, s.failed(err)
	}
	esp := sp.Child("past")
	esp.SetAttrInt("at", int64(q.At))
	// No I/O to track: the brute force reads no page, and the pool counters
	// are engine-global, so a concurrent FR query's reads would be charged
	// here.
	res, err := s.evaluateLocked(q, BruteForce, false, esp)
	esp.End()
	if err != nil {
		return nil, s.failed(err)
	}
	return res, nil
}

// Interval answers the interval PDR query (rho, l, [q.At, until]) — the
// union of the snapshot answers over every timestamp in the range
// (Definition 5) — accumulating costs across snapshots.
//
// The per-timestamp snapshots are independent (each reads a different
// histogram slot and projects the same indexes to a different time), so they
// fan out over the worker pool and their results merge deterministically:
// sub-results land in per-timestamp slots, are concatenated in timestamp
// order, and the union is coalesced — identical output at any worker count.
// Costs aggregate as before: CPU is the summed computation across snapshots
// (total work, not wall time), and I/O is charged once from the pool delta
// across the whole fan-out so overlapping sub-snapshots never double-count
// a page access.
func (s *Server) Interval(q Query, until motion.Tick, m Method) (*Result, error) {
	return s.IntervalTraced(q, until, m, nil)
}

// IntervalTraced is Interval recording the fan-out as a span subtree of
// sp: one "snapshot" child per timestamp, pre-allocated in timestamp
// order so the tree shape is deterministic at any worker count. A nil sp
// traces nothing and allocates nothing.
func (s *Server) IntervalTraced(q Query, until motion.Tick, m Method, sp *telemetry.Span) (*Result, error) {
	if until < q.At {
		return nil, s.failed(fmt.Errorf("core: empty interval [%d, %d]", q.At, until))
	}
	s.mu.RLock()
	sw := stopwatch.Start()
	n := int(until-q.At) + 1
	isp := sp.Child("interval")
	isp.SetAttr("method", m.String())
	isp.SetAttrInt("snapshots", int64(n))
	out, err := s.intervalLocked(q, n, m, isp)
	s.mu.RUnlock()
	if err != nil {
		isp.End()
		return nil, s.failed(err)
	}
	// Snapshots of adjacent timestamps overlap, so the union's area is the
	// exact measure, not a sum. The union is private to this call: it is
	// measured after the engine lock is released.
	asp := isp.Child("area")
	out.Area = geom.UnionArea(out.Region)
	asp.End()
	isp.SetAttrInt("ios", out.IOs)
	isp.End()
	out.Wall = sw.Elapsed()
	if s.met != nil {
		s.met.observeInterval(int64(n), out.Wall)
	}
	return out, nil
}

// intervalLocked fans the n per-timestamp snapshots of an interval query out
// under the read locks and merges them into one result (everything but its
// Area and Wall, which IntervalTraced fills in once the locks are released).
func (s *Server) intervalLocked(q Query, n int, m Method, isp *telemetry.Span) (*Result, error) {
	// Refuse a range that leaves the window before evaluating any of it: the
	// first end, then the first timestamp past the window if the range
	// reaches it — the snapshot whose error the fan-out would report.
	last := q
	last.At = min(q.At+motion.Tick(n-1), s.Now()+s.Horizon()+1)
	for _, end := range [2]Query{q, last} {
		if err := s.checkLocked(end, m); err != nil {
			return nil, err
		}
	}
	ioBefore := s.PoolStats()
	sc := intervalScratches.Get().(*intervalScratch)
	defer releaseIntervalScratch(sc)
	subs := grow(sc.subs, n)
	errs := grow(sc.errs, n)
	sc.subs, sc.errs = subs, errs
	slots := isp.Fork("snapshot", n)
	s.par.ForEachSpan(n, slots, func(i int, ssp *telemetry.Span) {
		sub := q
		sub.At = q.At + motion.Tick(i)
		ssp.SetAttrInt("at", int64(sub.At))
		subs[i], errs[i] = s.snapshotLocked(sub, m, false, ssp)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &Result{Method: m, Cached: true}
	var region geom.Region
	for _, r := range subs {
		// The sub-result regions are copied by value into the fresh union
		// buffer, so coalescing it in place cannot touch a cached answer.
		region = append(region, r.Region...)
		out.CPU += r.CPU
		out.Cached = out.Cached && r.Cached
		out.CachedCPU += r.CachedCPU
		out.Accepted += r.Accepted
		out.Rejected += r.Rejected
		out.Candidates += r.Candidates
		out.ObjectsRetrieved += r.ObjectsRetrieved
	}
	out.IOs = s.PoolStats().Sub(ioBefore).RandomIOs()
	out.IOTime = time.Duration(out.IOs) * storage.DefaultRandomIO
	// Snapshots of adjacent timestamps overlap heavily; coalescing the
	// union keeps the answer free of redundant rectangles, exactly like the
	// per-snapshot answers.
	usp := isp.Child("union")
	out.Region = geom.CoalesceInPlace(region)
	usp.End()
	return out, nil
}
