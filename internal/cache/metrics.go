package cache

import "pdr/internal/telemetry"

// RegisterMetrics exposes the cache accounting on reg. Every series is read
// from the cache's own atomics at scrape time, not under its mutex, so
// /metrics reports the counts since the cache was built, the same numbers
// Stats returns.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("pdr_cache_hits_total",
		"Snapshot lookups served from the result cache.", c.hits.Load)
	reg.CounterFunc("pdr_cache_misses_total",
		"Snapshot lookups that evaluated (cold key or superseded epoch).", c.misses.Load)
	reg.CounterFunc("pdr_cache_evictions_total",
		"Cached snapshot results dropped by the byte budget (LRU tail).", c.evictions.Load)
	reg.CounterFunc("pdr_cache_singleflight_shared_total",
		"Lookups collapsed onto another caller's in-flight evaluation.", c.shared.Load)
	reg.GaugeFunc("pdr_cache_bytes",
		"Approximate resident bytes of the snapshot result cache, all of the newest epoch.",
		func() float64 { return float64(c.bytes.Load()) })
	reg.GaugeFunc("pdr_cache_entries",
		"Resident entries of the snapshot result cache, all of the newest epoch.",
		func() float64 { return float64(c.entries.Load()) })
	reg.GaugeFunc("pdr_cache_hit_ratio",
		"Fraction of lookups served without an evaluation (hits plus shared flights).",
		func() float64 { return c.Stats().HitRatio() })
}
