package core

import (
	"fmt"
	"math"
	"math/bits"
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

// frScratch holds one FR snapshot's scatter/gather slices: the candidate
// cells in row order, where each row run starts in them, and the per-run
// result slots the refinement fan-out writes and the merge loop drains. The
// slices are request-scoped (no Result retains them), so they pool across
// queries; region slots are nil-ed during the merge so a pooled buffer never
// pins another query's answer.
type frScratch struct {
	cells     []geom.Rect
	starts    []int
	parts     []geom.Region
	retrieved []int
}

var frScratches = sync.Pool{New: func() any { return new(frScratch) }}

// intervalScratch is frScratch for the interval fan-out: per-timestamp
// sub-result and error slots.
type intervalScratch struct {
	subs []*Result
	errs []error
}

var intervalScratches = sync.Pool{New: func() any { return new(intervalScratch) }}

// pointBufs pools the per-run point-gather buffers of the refinement workers
// (the sweep reads the points and retains nothing).
var pointBufs = sync.Pool{New: func() any { return new([]geom.Point) }}

// seenSets pools the replica-dedup sets of multi-partition runs; sets are
// cleared before reuse. A map is pointer-shaped, so pooling it directly
// costs no boxing allocation.
var seenSets = sync.Pool{New: func() any { return make(map[motion.ObjectID]struct{}) }}

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

// Query is a snapshot PDR query (rho, l, qt): all regions every point of
// which has at least rho*l^2 objects in its l-square neighborhood at
// timestamp qt.
type Query struct {
	Rho float64
	L   float64
	At  motion.Tick
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
	// Phases is the trace breakdown of the evaluation (filter, refine,
	// pa-eval, union); interval queries merge per-snapshot spans by name.
	Phases []telemetry.PhaseSpan
}

// Total returns CPU + IOTime.
func (r *Result) Total() time.Duration { return r.CPU + r.IOTime }

// rlockAll read-locks every partition (ascending, matching the writer order)
// so a query evaluates against one consistent cut of the stream: no mutation
// can land between the scatter touching partition 0 and partition N-1.
func (s *Server) rlockAll() {
	for i := range s.pmu {
		s.pmu[i].RLock()
	}
}

func (s *Server) runlockAll() {
	for i := len(s.pmu) - 1; i >= 0; i-- {
		s.pmu[i].RUnlock()
	}
}

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

func (s *Server) validateLocked(q Query) error {
	now := s.Now()
	if q.Rho < 0 {
		return fmt.Errorf("core: negative density threshold %g", q.Rho)
	}
	if q.L <= 0 {
		return fmt.Errorf("core: non-positive neighborhood edge %g", q.L)
	}
	if q.At < now || q.At > now+s.Horizon() {
		return fmt.Errorf("core: query time %d outside [%d, %d]", q.At, now, now+s.Horizon())
	}
	return nil
}

// Snapshot answers the snapshot PDR query q with the given method. Any
// number of Snapshot/Interval calls may run concurrently; they serialize
// only against mutations of the partitions involved.
func (s *Server) Snapshot(q Query, m Method) (*Result, error) {
	return s.SnapshotTraced(q, m, nil)
}

// SnapshotTraced is Snapshot recording its evaluation as a child span of
// sp: the phase breakdown, the per-window refinement fan-out, and cache
// outcomes all land in the span tree. A nil sp traces nothing and
// allocates nothing — Snapshot simply passes nil.
//
// pdr:hot — query-path root for the hotpath analyzer family (docs/LINT.md).
func (s *Server) SnapshotTraced(q Query, m Method, sp *telemetry.Span) (*Result, error) {
	s.rlockAll()
	defer s.runlockAll()
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
	if err := s.validateLocked(q); err != nil {
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
		Phases:           []telemetry.PhaseSpan{{Name: "cache", Duration: elapsed}},
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
	default:
		err = fmt.Errorf("core: unknown method %d", m)
	}
	if err != nil {
		return nil, err
	}
	res.Area = geom.DisjointArea(res.Region)
	res.CPU = sw.Elapsed()
	res.Wall = res.CPU // a snapshot evaluation is one sequential stopwatch
	if trackIO {
		res.IOs = s.PoolStats().Sub(ioBefore).RandomIOs()
		res.IOTime = time.Duration(res.IOs) * s.cfg.IOCharge
	}
	sp.SetAttrInt("ios", res.IOs)
	// The flat phase breakdown is the span tree's first level, folded by
	// name; untraced evaluations (nil sp) report no phases.
	res.Phases = sp.PhaseSummary()
	return res, nil
}

// filterLocked runs the filter step over the merged per-partition histograms
// — bit-identical to one histogram over the whole population, because int32
// counters over disjoint primary populations add exactly.
func (s *Server) filterLocked(q Query) (*dh.FilterResult, error) {
	return dh.FilterMerged(s.hists, q.At, q.Rho, q.L)
}

// snapshotFRLocked runs filtering over the histogram and plane-sweep
// refinement over index range results for the candidate cells. The paper
// refines cell by cell, fetching each cell's grown window on its own; here
// the unit is a row run — the candidates of one histogram row, left to right,
// for as long as the next one's grown window still touches the last one's
// (gap <= l) — because neighbours' windows are nearly the same window: one
// index search over the run's grown bounding box (exactly the union of its
// cells' windows) and one sweep (sweep.DenseRectsRow) replace one of each per
// cell. The rectangles are still produced and coalesced cell by cell, so the
// answer is bit-identical to the per-cell pipeline's; only the work counters
// (ObjectsRetrieved, IOs, the number of window spans) are per run.
//
// Refinement is the method's hot loop and each run is independent, so the
// runs fan out over the worker pool: every worker gathers its run's objects
// and sweeps them with pooled scratch (refineRun). Results land in a per-run
// slot and are merged in run order, so the output is byte-identical to the
// sequential path at any worker count.
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
	cells, starts := sc.cells[:0], sc.starts[:0]
	for k, c := range cands {
		cell := s.hists[0].CellRect(c.I, c.J)
		if k == 0 || c.J != cands[k-1].J || cell.MinX-cells[k-1].MaxX > q.L {
			starts = append(starts, k)
		}
		cells = append(cells, cell)
	}
	runs := len(starts)
	starts = append(starts, len(cells))
	sc.cells, sc.starts = cells, starts
	ph.SetAttrInt("accepted", int64(res.Accepted))
	ph.SetAttrInt("rejected", int64(res.Rejected))
	ph.SetAttrInt("candidates", int64(res.Candidates))
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
	sc.retrieved = grow(sc.retrieved, runs)
	parts, retrieved := sc.parts, sc.retrieved
	s.par.ForEachSpan(runs, slots, func(ri int, wsp *telemetry.Span) {
		parts[ri], retrieved[ri] = s.refineRun(q, cells[starts[ri]:starts[ri+1]], wsp)
	})
	var msw stopwatch.Stopwatch
	if s.pmet != nil {
		msw = stopwatch.Start()
	}
	for ri := range parts {
		res.ObjectsRetrieved += retrieved[ri]
		region = append(region, parts[ri]...)
		parts[ri] = nil // do not pin this run's region in the pool
	}
	frScratches.Put(sc)
	ph.End()
	ph = sp.Child("union")
	// region is appended fresh above (AcceptedRegion allocates per call), so
	// the union coalesces in place.
	res.Region = geom.CoalesceInPlace(region)
	ph.End()
	if s.pmet != nil {
		s.pmet.merge.Observe(msw.Elapsed().Seconds())
	}
	return nil
}

// refineRun gathers the objects of one row run (see snapshotFRLocked) from
// every partition the run's grown bounding box intersects and sweeps them.
// Partitions are visited in index order and boundary straddlers (present in
// several indexes as replicas) are deduplicated by object ID on first sight,
// so the gathered point multiset — and therefore the sweep — is the same at
// every partition count. The dedup set and the per-partition child spans
// exist only for runs that reach more than one partition.
func (s *Server) refineRun(q Query, cells []geom.Rect, wsp *telemetry.Span) (geom.Region, int) {
	first, last := cells[0], cells[len(cells)-1]
	grown := geom.NewRect(first.MinX, first.MinY, last.MaxX, first.MaxY).Grow(q.L / 2)
	mask := s.router.Intersecting(grown)
	width := bits.OnesCount64(mask)
	if s.pmet != nil {
		s.pmet.scatter.Observe(float64(width))
	}
	pb := pointBufs.Get().(*[]geom.Point)
	points := (*pb)[:0]
	var seen map[motion.ObjectID]struct{}
	wsp.SetAttrInt("cells", int64(len(cells)))
	if width > 1 {
		wsp.SetAttrInt("shards", int64(width))
		seen = seenSets.Get().(map[motion.ObjectID]struct{})
		clear(seen)
	}
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		var psp *telemetry.Span
		if width > 1 {
			psp = wsp.Child("shard")
			psp.SetAttrInt("shard", int64(i))
		}
		before := len(points)
		s.parts[i].index.Search(grown, q.At, func(st motion.State) bool {
			if seen != nil {
				if _, dup := seen[st.ID]; dup {
					return true
				}
				seen[st.ID] = struct{}{}
			}
			p := st.PositionAt(q.At)
			if s.cfg.Area.Contains(p) {
				points = append(points, p)
			}
			return true
		})
		psp.SetAttrInt("retrieved", int64(len(points)-before))
		psp.End()
	}
	wsp.SetAttrInt("retrieved", int64(len(points)))
	out := sweep.DenseRectsRow(points, cells, q.Rho, q.L)
	n := len(points)
	*pb = points
	pointBufs.Put(pb)
	if seen != nil {
		seenSets.Put(seen)
	}
	return out, n
}

func (s *Server) snapshotPALocked(q Query, res *Result, sp *telemetry.Span) error {
	if s.surf == nil {
		return errPADisabled
	}
	// lint:ignore floateq config identity: the surfaces answer only the
	// exact l they were built for; a nearly-equal l must be rejected too.
	if q.L != s.surf.L() {
		return fmt.Errorf("core: PA surfaces are built for l=%g, query asked l=%g (the approximation method fixes l in advance; use FR for other edges)",
			s.surf.L(), q.L)
	}
	ph := sp.Child("pa-eval")
	s.surfMu.RLock()
	region, walk, err := s.surf.DenseRegionStats(q.At, q.Rho)
	s.surfMu.RUnlock()
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

// appendLivePoints appends the predicted position at qt of every live object
// that already existed at notAfter and is inside the monitored area at qt (the
// population contract).
func (s *Server) appendLivePoints(points []geom.Point, qt, notAfter motion.Tick) []geom.Point {
	s.dir.each(func(st motion.State) {
		if st.Ref > notAfter {
			return
		}
		if p := st.PositionAt(qt); s.cfg.Area.Contains(p) {
			points = append(points, p)
		}
	})
	return points
}

func (s *Server) snapshotBFLocked(q Query, res *Result, sp *telemetry.Span) {
	ph := sp.Child("refine")
	pb := pointBufs.Get().(*[]geom.Point)
	points := s.appendLivePoints((*pb)[:0], q.At, motion.Tick(math.MaxInt64))
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
	s.rlockAll()
	defer s.runlockAll()
	if !s.cfg.KeepHistory {
		return nil, s.failed(fmt.Errorf("core: history is disabled (set Config.KeepHistory)"))
	}
	if now := s.Now(); q.At >= now {
		return nil, s.failed(fmt.Errorf("core: PastSnapshot is for t < now (%d); use Snapshot", now))
	}
	if q.Rho < 0 || q.L <= 0 {
		return nil, s.failed(fmt.Errorf("core: bad query parameters rho=%g l=%g", q.Rho, q.L))
	}
	res := &Result{Method: BruteForce}
	esp := sp.Child("past")
	esp.SetAttrInt("at", int64(q.At))
	sw := stopwatch.Start()
	ph := esp.Child("refine")
	var points []geom.Point
	for _, part := range s.parts {
		points = append(points, part.hst.PointsAt(q.At)...)
	}
	// Movements reported after q.At did not exist yet at q.At.
	points = s.appendLivePoints(points, q.At, q.At)
	res.ObjectsRetrieved = len(points)
	ph.SetAttrInt("retrieved", int64(res.ObjectsRetrieved))
	ph.End()
	ph = esp.Child("union")
	res.Region = geom.CoalesceInPlace(sweep.DenseRects(points, s.cfg.Area, q.Rho, q.L))
	res.Area = geom.DisjointArea(res.Region)
	ph.End()
	res.CPU = sw.Elapsed()
	res.Wall = res.CPU
	res.Phases = esp.PhaseSummary()
	esp.End()
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
//
// pdr:hot — query-path root for the hotpath analyzer family (docs/LINT.md).
func (s *Server) IntervalTraced(q Query, until motion.Tick, m Method, sp *telemetry.Span) (*Result, error) {
	if until < q.At {
		return nil, s.failed(fmt.Errorf("core: empty interval [%d, %d]", q.At, until))
	}
	s.rlockAll()
	sw := stopwatch.Start()
	n := int(until-q.At) + 1
	isp := sp.Child("interval")
	isp.SetAttr("method", m.String())
	isp.SetAttrInt("snapshots", int64(n))
	out, err := s.intervalLocked(q, n, m, isp)
	s.runlockAll()
	if err != nil {
		isp.End()
		return nil, s.failed(err)
	}
	// Snapshots of adjacent timestamps overlap, so the union's area is the
	// exact measure, not a sum. The union is private to this call: it is
	// measured after the partitions are released.
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
		out.Phases = telemetry.MergeSpans(out.Phases, r.Phases)
	}
	out.IOs = s.PoolStats().Sub(ioBefore).RandomIOs()
	out.IOTime = time.Duration(out.IOs) * s.cfg.IOCharge
	// Snapshots of adjacent timestamps overlap heavily; coalescing the
	// union keeps the answer free of redundant rectangles, exactly like the
	// per-snapshot answers.
	usp := isp.Child("union")
	out.Region = geom.CoalesceInPlace(region)
	usp.End()
	return out, nil
}

// FilterMarks exposes the raw filter classification for a query — used by
// the experiment harness and example programs to visualize the filter step.
// The caller owns the result; releasing it (dh.FilterResult.Release) when
// done is optional but lets the filter pool reuse its buffers.
func (s *Server) FilterMarks(q Query) (*dh.FilterResult, error) {
	s.rlockAll()
	defer s.runlockAll()
	if err := s.validateLocked(q); err != nil {
		return nil, err
	}
	return s.filterLocked(q)
}
