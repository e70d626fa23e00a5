package main

// metricDef names one metric: its unit, which direction is better and, for
// an end-to-end metric, the share of the parent's median by which it may get
// worse before a change counts as a regression. BENCHMARK.json repeats this
// catalogue for the driver; TestBenchmarkJSONMatchesCatalogue keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of pdrserve sees. Every workload reports every
// metric; primary is the request class the workload exists for
// (plan.Workload.Primary), ops_per_s counts what its closed-loop clients
// complete:
//
//	               primary_p50_ms                        ops_per_s
//	exact-read     FR snapshot                           snapshots + intervals
//	approx-read    PA snapshot                           snapshots + intervals, 2 clients
//	update-stream  /v1/updates tick                      ticks + applies
//	mixed-rw       the reader's FR snapshot              the reader's FR snapshots
//
// Both are quiet statistics (plan.QuietLow, plan.QuietHigh): the run is cut
// into windows of plan.Workload.WindowCycles cycles, each window gives the
// median latency of its primary requests and its own request rate, and the
// run reports the best decile of the windows. peak_rss_mb is read after a
// fixed amount of work (plan.Workload.MemoryCycles), setup_s is the median
// of setupRuns starts. Every bound is the contract's ceiling of 25 %: the
// sandbox is a shared host (README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"primary_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"pa_err_ratio", "ratio", "lower", 0.25},
}

// perLayer is the traced run's catalogue: `layer.metric`, per operation
// unless the unit says otherwise, medians over the probed operations. A
// layer the workload does not cross reports 0.
var perLayer = []metricDef{
	// Scraped from the server's own /v1/stats and /metrics around the
	// end-to-end phase of the traced run, and observed by its clients.
	{Name: "service.http_requests", Unit: "count", Better: "higher"},
	{Name: "service.http_non2xx", Unit: "count", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.pool_hits", Unit: "count", Better: "lower"},
	{Name: "storage.pool_reads", Unit: "count", Better: "lower"},
	{Name: "tprtree.pages", Unit: "count", Better: "lower"},
	{Name: "dh.bytes", Unit: "B", Better: "lower"},
	{Name: "pa.bytes", Unit: "B", Better: "lower"},
	{Name: "e2e.primary_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.primary_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.secondary_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.secondary_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.tick_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.update_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen.lateness_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "check.exact_mismatch", Unit: "count", Better: "lower"},
	{Name: "check.pa_err_ratio", Unit: "ratio", Better: "lower"},
	{Name: "check.failed_ratio", Unit: "ratio", Better: "lower"},

	// Measured in process by bench/layers, from outside each layer's public
	// functions.
	{Name: "service.query_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "service.json_bytes", Unit: "B", Better: "lower"},
	{Name: "service.updates_decode_us", Unit: "us", Better: "lower"},
	{Name: "service.trace_overhead_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us_per_record", Unit: "us", Better: "lower"},
	{Name: "core.snapshot_fr_us", Unit: "us", Better: "lower"},
	{Name: "core.snapshot_pa_us", Unit: "us", Better: "lower"},
	{Name: "core.interval_fr_us", Unit: "us", Better: "lower"},
	{Name: "core.interval_pa_us", Unit: "us", Better: "lower"},
	{Name: "core.tick_us", Unit: "us", Better: "lower"},
	{Name: "core.apply_us", Unit: "us", Better: "lower"},
	{Name: "core.load_us", Unit: "us", Better: "lower"},
	{Name: "core.fr_self_us", Unit: "us", Better: "lower"},
	{Name: "core.fr_unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.tick_unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dh.filter_us", Unit: "us", Better: "lower"},
	{Name: "dh.candidates", Unit: "count", Better: "lower"},
	{Name: "dh.accepted", Unit: "count", Better: "higher"},
	{Name: "dh.update_us", Unit: "us", Better: "lower"},
	{Name: "tprtree.search_us", Unit: "us", Better: "lower"},
	{Name: "tprtree.objects_retrieved", Unit: "count", Better: "lower"},
	{Name: "tprtree.retrieval_amplification", Unit: "ratio", Better: "lower"},
	{Name: "tprtree.update_us", Unit: "us", Better: "lower"},
	{Name: "tprtree.bulkload_us", Unit: "us", Better: "lower"},
	{Name: "sweep.dense_rects_us", Unit: "us", Better: "lower"},
	{Name: "sweep.windows", Unit: "count", Better: "lower"},
	{Name: "sweep.points_per_window", Unit: "count", Better: "lower"},
	{Name: "sweep.rects_out", Unit: "count", Better: "lower"},
	{Name: "geom.union_us", Unit: "us", Better: "lower"},
	{Name: "geom.rects_in", Unit: "count", Better: "lower"},
	{Name: "geom.rects_out", Unit: "count", Better: "lower"},
	{Name: "pa.dense_region_us", Unit: "us", Better: "lower"},
	{Name: "pa.rects_out", Unit: "count", Better: "lower"},
	{Name: "pa.update_us", Unit: "us", Better: "lower"},
	{Name: "pa.load_us", Unit: "us", Better: "lower"},
	{Name: "cheb.addbox_ns", Unit: "ns", Better: "lower"},
	{Name: "cheb.bounds_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.do_hit_us", Unit: "us", Better: "lower"},
	{Name: "parallel.workers", Unit: "count", Better: "higher"},
	{Name: "parallel.fr_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.fr_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.tick_us", Unit: "us", Better: "lower"},
	{Name: "shard.apply_us", Unit: "us", Better: "lower"},
	{Name: "shadow.mismatch", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// catalogue returns the metrics a run reports.
func catalogue(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
