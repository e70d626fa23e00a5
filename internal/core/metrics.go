package core

import (
	"time"

	"pdr/internal/telemetry"
)

// metricMethods enumerates the instrumented query methods in display order:
// the two the service answers. The baselines are library methods, asked in
// process by the experiments and the tests, and are not counted.
var metricMethods = []Method{FR, PA}

// filter-mark label values for pdr_engine_filter_cells_total.
var filterMarks = []string{"accepted", "rejected", "candidate"}

// fanoutBounds buckets fan-out sizes (snapshots per interval query, row runs
// per refinement) — small powers of two up to paper-scale candidate counts.
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Metrics is the engine's instrument bundle: per-method query counts and
// latency distributions, the filter step's cell classification (the paper's
// Sec. 5 cost drivers), refinement fan-in, interval-query fan-out, and the
// parallel execution layer (per-query fan-out distributions, wall-clock
// interval latency — the series where added workers show up as
// left-shifted buckets). All instruments are atomic, so a /metrics scrape
// never needs the engine lock.
type Metrics struct {
	queries      map[Method]*telemetry.Counter
	latency      map[Method]*telemetry.Histogram
	errors       *telemetry.Counter
	filter       map[string]*telemetry.Counter
	retrieved    *telemetry.Counter
	intervals    *telemetry.Counter
	fanout       *telemetry.Counter
	fanoutHist   *telemetry.Histogram
	intervalWall *telemetry.Histogram
	refineFanout *telemetry.Histogram
}

// NewMetrics registers the engine instruments on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		queries: make(map[Method]*telemetry.Counter, len(metricMethods)),
		latency: make(map[Method]*telemetry.Histogram, len(metricMethods)),
		filter:  make(map[string]*telemetry.Counter, len(filterMarks)),
		errors: reg.Counter("pdr_engine_query_errors_total",
			"Query calls (snapshot, interval, past) rejected by validation or failed during evaluation; one per call."),
		retrieved: reg.Counter("pdr_engine_objects_retrieved_total",
			"Index results fetched during refinement."),
		intervals: reg.Counter("pdr_engine_interval_queries_total",
			"Interval PDR queries answered."),
		fanout: reg.Counter("pdr_engine_interval_snapshots_total",
			"Snapshot evaluations fanned out by interval queries."),
		fanoutHist: reg.Histogram("pdr_engine_interval_fanout_snapshots",
			"Per-interval-query fan-out (snapshots dispatched to the worker pool).",
			fanoutBounds),
		intervalWall: reg.Histogram("pdr_engine_interval_wall_seconds",
			"Wall-clock interval query latency (drops as workers are added; compare against summed per-snapshot cost).",
			nil),
		refineFanout: reg.Histogram("pdr_engine_refine_fanout_windows",
			"Per-FR-query refinement fan-out (row runs of candidate cells dispatched to the worker pool).",
			fanoutBounds),
	}
	for _, mm := range metricMethods {
		m.queries[mm] = reg.Counter("pdr_engine_queries_total",
			"Snapshot PDR queries answered, by method.",
			telemetry.L("method", mm.String()))
		m.latency[mm] = reg.Histogram("pdr_engine_query_seconds",
			"Total per-query cost (measured CPU plus charged I/O), by method.",
			nil, telemetry.L("method", mm.String()))
	}
	for _, mark := range filterMarks {
		m.filter[mark] = reg.Counter("pdr_engine_filter_cells_total",
			"Histogram cells classified by the filter step, by mark.",
			telemetry.L("mark", mark))
	}
	return m
}

// observe records one completed snapshot result; a method metricMethods
// does not name counts nowhere.
func (m *Metrics) observe(res *Result) {
	q, ok := m.queries[res.Method]
	if !ok {
		return
	}
	q.Inc()
	m.latency[res.Method].Observe(res.Total().Seconds())
	m.filter["accepted"].Add(int64(res.Accepted))
	m.filter["rejected"].Add(int64(res.Rejected))
	m.filter["candidate"].Add(int64(res.Candidates))
	m.retrieved.Add(int64(res.ObjectsRetrieved))
}

// observeInterval records an interval query's snapshot fan-out and its
// wall-clock latency (the client-visible duration of the parallel union,
// as opposed to the summed per-snapshot CPU in Result.CPU).
func (m *Metrics) observeInterval(snapshots int64, wall time.Duration) {
	m.intervals.Inc()
	m.fanout.Add(snapshots)
	m.fanoutHist.Observe(float64(snapshots))
	m.intervalWall.Observe(wall.Seconds())
}

// QueriesServed returns the per-method query counts — the shared source of
// truth behind both /metrics and /v1/stats.
func (m *Metrics) QueriesServed() map[string]int64 {
	out := make(map[string]int64, len(m.queries))
	for mm, c := range m.queries {
		out[mm.String()] = c.Value()
	}
	return out
}

// SetMetrics attaches an instrument bundle to the server; a nil bundle
// disables engine metrics (the default for offline/experiment servers).
// Call before serving traffic: attachment is not synchronized with
// in-flight queries.
func (s *Server) SetMetrics(m *Metrics) { s.met = m }

// AttachTelemetry registers the server's substrate series on reg: the
// buffer pool's I/O counters, the result cache (when enabled) and the
// worker pool. Each is read from its subsystem at scrape time, so the
// series count from the engine's construction, not from the attachment,
// and may be attached at any time.
func (s *Server) AttachTelemetry(reg *telemetry.Registry) {
	s.pool.RegisterMetrics(reg)
	if s.qcache != nil {
		s.qcache.RegisterMetrics(reg)
	}
	s.par.RegisterMetrics(reg)
}
