package core

import (
	"strconv"
	"time"

	"pdr/internal/cache"
	"pdr/internal/storage"
	"pdr/internal/telemetry"
)

// metricMethods enumerates the instrumented query methods in display order.
var metricMethods = []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce}

// filter-mark label values for pdr_engine_filter_cells_total.
var filterMarks = []string{"accepted", "rejected", "candidate"}

// fanoutBounds buckets fan-out sizes (snapshots per interval query, row runs
// per refinement) — small powers of two up to paper-scale candidate counts.
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Metrics is the engine's instrument bundle: per-method query counts and
// latency distributions, the filter step's cell classification (the paper's
// Sec. 5 cost drivers), refinement fan-in, interval-query fan-out, and the
// parallel execution layer (worker-pool occupancy, per-query fan-out
// distributions, wall-clock interval latency — the series where added
// workers show up as left-shifted buckets). All instruments are atomic, so
// a /metrics scrape never needs the engine lock.
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
	workers      *telemetry.Gauge
	busy         *telemetry.Gauge
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
		workers: reg.Gauge("pdr_parallel_workers",
			"Configured query worker-pool size (core.Config.Workers, 0 resolved to GOMAXPROCS)."),
		busy: reg.Gauge("pdr_parallel_workers_busy",
			"Worker-pool helper goroutines currently running fan-out items."),
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

// observe records one completed snapshot result.
func (m *Metrics) observe(res *Result) {
	m.queries[res.Method].Inc()
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
func (s *Server) SetMetrics(m *Metrics) {
	s.met = m
	if m != nil {
		m.workers.Set(float64(s.par.Workers()))
		s.par.SetBusyGauge(m.busy)
	} else {
		s.par.SetBusyGauge(nil)
	}
}

// AttachTelemetry registers the server's substrate instruments on reg: one
// pool-metrics bundle aggregated across the partitions' buffer pools, the
// result cache, and the pdr_shard_* family (distribution gauges, scatter
// widths, merge time, write-lock waits). Call before serving traffic, like
// SetMetrics.
func (s *Server) AttachTelemetry(reg *telemetry.Registry) {
	pm := storage.NewPoolMetrics(reg)
	for _, p := range s.parts {
		p.pool.SetMetrics(pm)
	}
	if s.qcache != nil {
		s.qcache.SetMetrics(cache.NewMetrics(reg))
	}
	s.pmet = newPartitionMetrics(reg, s)
}

// shardWidthBounds buckets partition fan-out widths (1..MaxShards).
var shardWidthBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// partitionMetrics is the pdr_shard_* instrument bundle.
type partitionMetrics struct {
	// scatter is the partitions queried per refinement row run.
	scatter *telemetry.Histogram
	// merge is the time spent concatenating and coalescing partial answers.
	merge *telemetry.Histogram
	// writeFan is the partitions write-locked per mutation.
	writeFan *telemetry.Histogram
	// lockWait[i] is the time writers waited for partition i's write lock.
	lockWait []*telemetry.Histogram
}

func newPartitionMetrics(reg *telemetry.Registry, s *Server) *partitionMetrics {
	reg.Gauge("pdr_shard_count",
		"Space partitions the engine scatters over.").Set(float64(len(s.parts)))
	reg.GaugeFunc("pdr_shard_straddlers",
		"Live objects registered with more than one shard (trajectory straddles a shard boundary).",
		func() float64 { return float64(s.dir.straddlers.Load()) })
	m := &partitionMetrics{
		scatter: reg.Histogram("pdr_shard_scatter_width",
			"Shards queried per refinement row run (scatter fan-out).",
			shardWidthBounds),
		merge: reg.Histogram("pdr_shard_merge_seconds",
			"Time merging (concatenating and coalescing) partial answers per query.",
			nil),
		writeFan: reg.Histogram("pdr_shard_write_fanout_shards",
			"Shards write-locked per mutation (1 unless the object straddles a boundary; ticks lock every shard).",
			shardWidthBounds),
		lockWait: make([]*telemetry.Histogram, len(s.parts)),
	}
	for i, p := range s.parts {
		lbl := telemetry.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("pdr_shard_objects",
			"Primary live objects owned by each shard.",
			func() float64 { return float64(p.objects.Load()) }, lbl)
		reg.GaugeFunc("pdr_shard_replicas",
			"Replica (index-only) registrations held by each shard for boundary straddlers.",
			func() float64 { return float64(p.replicas.Load()) }, lbl)
		m.lockWait[i] = reg.Histogram("pdr_shard_write_lock_wait_seconds",
			"Time writers waited to acquire each shard's write lock.",
			nil, lbl)
	}
	return m
}
