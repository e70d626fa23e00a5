package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/motion"
	"pdr/internal/telemetry"
)

// syncBuffer lets the slow-query log write from handler goroutines while
// the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// fetchMetrics scrapes /metrics and returns the body.
func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of an exact sample line, -1 if absent.
func metricValue(body, sample string) string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			return rest
		}
	}
	return ""
}

// TestRequestCounterPerStatus sends one route's requests of two statuses
// from several goroutines at once: each status keeps its own series, bound
// at its first request, and every request is counted in it.
func TestRequestCounterPerStatus(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, svc, 200)
	const workers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for _, q := range []string{"method=fr&varrho=2&l=60", "method=nope"} {
					resp, err := http.Get(ts.URL + "/v1/query?" + q)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	body := fetchMetrics(t, ts)
	for _, status := range []string{"200", "400"} {
		sample := `pdr_http_requests_total{route="/v1/query",status="` + status + `"}`
		if v := metricValue(body, sample); v != strconv.Itoa(workers*each) {
			t.Errorf("%s = %q, want %d", sample, v, workers*each)
		}
	}
}

// TestMetricsEndpoint is the acceptance path: /metrics serves Prometheus
// text, and the per-method latency histograms and filter counters move
// after a /v1/query call.
func TestMetricsEndpoint(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, svc, 1000)

	before := fetchMetrics(t, ts)
	if v := metricValue(before, `pdr_engine_queries_total{method="FR"}`); v != "0" {
		t.Errorf("pre-query FR count = %q, want 0", v)
	}

	resp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	after := fetchMetrics(t, ts)
	if v := metricValue(after, `pdr_engine_queries_total{method="FR"}`); v != "1" {
		t.Errorf("post-query FR count = %q, want 1", v)
	}
	if v := metricValue(after, `pdr_engine_query_seconds_count{method="FR"}`); v != "1" {
		t.Errorf("FR latency observations = %q, want 1", v)
	}
	// The filter step classified cells: at least one counter moved.
	moved := false
	for _, mark := range []string{"accepted", "rejected", "candidate"} {
		if v := metricValue(after, `pdr_engine_filter_cells_total{mark="`+mark+`"}`); v != "0" && v != "" {
			moved = true
		}
	}
	if !moved {
		t.Error("no filter-cell counter moved after an FR query")
	}
	// HTTP middleware saw the query route (it records before the response
	// leaves, so the scrape that follows the response sees it).
	if v := metricValue(after, `pdr_http_requests_total{route="/v1/query",status="200"}`); v != "1" {
		t.Errorf("http request counter = %q, want 1", v)
	}
	if v := metricValue(after, `pdr_http_request_seconds_count{route="/v1/query"}`); v != "1" {
		t.Errorf("http latency observations = %q, want 1", v)
	}
	// ... and the size of what it sent: one observation, summing to the body.
	if v := metricValue(after, `pdr_http_response_bytes_count{route="/v1/query"}`); v != "1" {
		t.Errorf("http response-size observations = %q, want 1", v)
	}
	if v := metricValue(after, `pdr_http_response_bytes_sum{route="/v1/query"}`); v != strconv.FormatInt(resp.ContentLength, 10) {
		t.Errorf("http response bytes = %q, the reply's Content-Length was %d", v, resp.ContentLength)
	}
	// Pool instruments are present (FR refinement touches the index).
	if v := metricValue(after, "pdr_pool_hit_ratio"); v == "" {
		t.Error("pdr_pool_hit_ratio missing from exposition")
	}
}

func TestMetricsAndStatsAgree(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, svc, 500)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query?method=pa&varrho=2&l=60")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sr := struct {
		QueriesServed map[string]int64 `json:"queriesServed"`
		PoolHitRatio  float64          `json:"poolHitRatio"`
	}{}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.QueriesServed["PA"] != 3 {
		t.Errorf("stats queriesServed[PA] = %d, want 3", sr.QueriesServed["PA"])
	}
	if sr.PoolHitRatio < 0 || sr.PoolHitRatio > 1 {
		t.Errorf("pool hit ratio %g outside [0,1]", sr.PoolHitRatio)
	}
	body2 := fetchMetrics(t, ts)
	if v := metricValue(body2, `pdr_engine_queries_total{method="PA"}`); v != "3" {
		t.Errorf("metrics PA count = %q, want 3 (stats said %d)", v, sr.QueriesServed["PA"])
	}
}

// TestMetricsAgreeWithStatsForAWarmEngine wraps an engine that was loaded
// and had answered queries before the service existed: /metrics must report
// the pool's and the cache's counts since the engine was built, exactly as
// /v1/stats does, not just the traffic since the service attached.
func TestMetricsAgreeWithStatsForAWarmEngine(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	cfg.CacheBytes = 16 << 20
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(1000)
	gcfg.Seed = 7
	g, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Load(g.InitialStates()); err != nil {
		t.Fatal(err)
	}
	q := core.Query{Rho: 2 * 1000 / cfg.Area.Area(), L: 60, At: srv.Now() + 5}
	for i := 0; i < 3; i++ {
		if _, err := srv.Snapshot(q, core.FR); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewWithEngine(srv)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.PoolHits == 0 || sr.CacheHits != 2 || sr.CacheMisses != 1 {
		t.Fatalf("stats: poolHits %d, cache hits %d misses %d; want pool hits and 2 cache hits of 1 miss",
			sr.PoolHits, sr.CacheHits, sr.CacheMisses)
	}
	body := fetchMetrics(t, ts)
	ratio := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for sample, want := range map[string]string{
		"pdr_pool_hits_total":                 strconv.FormatInt(sr.PoolHits, 10),
		"pdr_pool_reads_total":                strconv.FormatInt(sr.PoolReads, 10),
		"pdr_pool_writes_total":               strconv.FormatInt(sr.PoolWrites, 10),
		"pdr_pool_pages":                      strconv.Itoa(sr.IndexPages),
		"pdr_pool_hit_ratio":                  ratio(sr.PoolHitRatio),
		"pdr_cache_hits_total":                strconv.FormatInt(sr.CacheHits, 10),
		"pdr_cache_misses_total":              strconv.FormatInt(sr.CacheMisses, 10),
		"pdr_cache_evictions_total":           strconv.FormatInt(sr.CacheEvictions, 10),
		"pdr_cache_singleflight_shared_total": strconv.FormatInt(sr.SingleflightShared, 10),
		"pdr_cache_bytes":                     strconv.FormatInt(sr.CacheBytes, 10),
		"pdr_cache_entries":                   strconv.FormatInt(sr.CacheEntries, 10),
		"pdr_cache_hit_ratio":                 ratio(sr.CacheHitRatio),
	} {
		if got := metricValue(body, sample); got != want {
			t.Errorf("/metrics %s = %q, /v1/stats says %s", sample, got, want)
		}
	}
}

// metricFamilies is every family /metrics exposes after
// TestMetricFamiliesPinned's session, as "name kind". A family's kind is part of its
// contract: Prometheus applies rate() to counters only, so a counter that
// turned into a gauge would break every dashboard built on it.
var metricFamilies = []string{
	"pdr_build_info gauge",
	"pdr_cache_bytes gauge",
	"pdr_cache_entries gauge",
	"pdr_cache_evictions_total counter",
	"pdr_cache_hit_ratio gauge",
	"pdr_cache_hits_total counter",
	"pdr_cache_misses_total counter",
	"pdr_cache_singleflight_shared_total counter",
	"pdr_engine_filter_cells_total counter",
	"pdr_engine_interval_fanout_snapshots histogram",
	"pdr_engine_interval_queries_total counter",
	"pdr_engine_interval_snapshots_total counter",
	"pdr_engine_interval_wall_seconds histogram",
	"pdr_engine_objects_retrieved_total counter",
	"pdr_engine_queries_total counter",
	"pdr_engine_query_errors_total counter",
	"pdr_engine_query_seconds histogram",
	"pdr_engine_refine_fanout_windows histogram",
	"pdr_go_gc_cycles gauge",
	"pdr_go_gc_pause_seconds_total gauge",
	"pdr_go_goroutines gauge",
	"pdr_go_heap_alloc_bytes gauge",
	"pdr_go_heap_objects gauge",
	"pdr_go_heap_sys_bytes gauge",
	"pdr_go_sched_latency_p50_seconds gauge",
	"pdr_go_sched_latency_p99_seconds gauge",
	"pdr_http_request_seconds histogram",
	"pdr_http_requests_total counter",
	"pdr_http_response_bytes histogram",
	"pdr_parallel_workers gauge",
	"pdr_parallel_workers_busy gauge",
	"pdr_pool_hit_ratio gauge",
	"pdr_pool_hits_total counter",
	"pdr_pool_pages gauge",
	"pdr_pool_reads_total counter",
	"pdr_pool_writes_total counter",
	"pdr_process_uptime_seconds gauge",
	"pdr_trace_dropped_total counter",
	"pdr_trace_evicted_total counter",
	"pdr_trace_sampled_total counter",
	"pdr_trace_store_entries gauge",
}

// TestMetricFamiliesPinned sends one request down each kind of route, with
// the result cache on: two ticks after a preload, FR, PA and interval
// queries, and stats. Then it checks each family's # TYPE line against metricFamilies.
func TestMetricFamiliesPinned(t *testing.T) {
	svc, ts := cachedTestService(t)
	g := loadWorkload(t, svc, 1000)
	advanceTicks(t, ts, g, 2)
	for _, path := range []string{
		"/v1/query?method=fr&varrho=2&l=60",
		"/v1/query?method=fr&varrho=2&l=60",
		"/v1/query?method=pa&varrho=2&l=60",
		"/v1/query?method=fr&varrho=2&l=60&at=now&until=now%2B2",
		"/v1/stats",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	var got []string
	for _, line := range strings.Split(fetchMetrics(t, ts), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, rest)
		}
	}
	if strings.Join(got, "\n") != strings.Join(metricFamilies, "\n") {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(metricFamilies, "\n"))
	}
}

func TestSlowQueryLog(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	var log syncBuffer
	// A zero-ish threshold logs every request.
	svc, err := New(cfg, WithSlowQueryLog(time.Nanosecond, 0, &log))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	loadWorkload(t, svc, 500)

	resp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var queryLine *TraceJSON
	for _, line := range slowLines(t, &log) {
		if line.Route == "/v1/query" {
			queryLine = &line
		}
	}
	if queryLine == nil {
		t.Fatalf("no /v1/query line in slow log:\n%s", log.String())
	}
	if queryLine.Status != http.StatusOK || queryLine.DurationMicros < 0 {
		t.Errorf("slow log line: %+v", queryLine)
	}
	if attrs := attrMap(*queryLine.Root); attrs["method"] != "FR" || attrs["l"] != "60" {
		t.Errorf("slow log query attrs: %v", attrs)
	}
	snap := child(*queryLine.Root, "snapshot")
	if snap == nil {
		t.Fatalf("slow log line has no snapshot span: root children %s", childNames(*queryLine.Root))
	}
	if got := childNames(*snap); got != "filter,gather,refine,union" {
		t.Errorf("trace phases = %s, want filter,gather,refine,union", got)
	}
	// The slow-query counter is exposed.
	if v := metricValue(fetchMetrics(t, ts), "pdr_http_slow_queries_total"); v == "" || v == "0" {
		t.Errorf("pdr_http_slow_queries_total = %q, want > 0", v)
	}
}

// probeWriter is a client that looks the request up the instant the first
// byte of the response reaches it.
type probeWriter struct {
	http.ResponseWriter
	probe  func()
	probed bool
}

func (w *probeWriter) WriteHeader(code int) {
	if !w.probed {
		w.probed = true
		w.probe()
	}
	w.ResponseWriter.WriteHeader(code)
}

// TestBookkeepingPrecedesResponse pins the middleware's ordering: when the
// first byte of a response leaves, the request's trace is already stored,
// its slow-log line written and its counters bumped — a client holding
// X-Pdr-Trace-Id can never be told 404.
func TestBookkeepingPrecedesResponse(t *testing.T) {
	var log syncBuffer
	svc, err := New(core.DefaultConfig(), WithSlowQueryLog(time.Nanosecond, 0, &log))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	w := &probeWriter{ResponseWriter: rec}
	w.probe = func() {
		id, err := telemetry.ParseTraceID(rec.Header().Get(TraceIDHeader))
		if err != nil {
			t.Errorf("response carries no trace id: %v", err)
		} else if svc.tracer.store.Get(id) == nil {
			t.Error("response left before its trace was stored")
		}
		if !strings.Contains(log.String(), `"route":"/v1/stats"`) {
			t.Error("response left before its slow-log line was written")
		}
		var buf bytes.Buffer
		if err := svc.reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if v := metricValue(buf.String(), `pdr_http_requests_total{route="/v1/stats",status="200"}`); v != "1" {
			t.Errorf("response left with the request counter at %q, want 1", v)
		}
	}
	svc.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if !w.probed || rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("response not delivered: probed=%v status=%d body=%d bytes", w.probed, rec.Code, rec.Body.Len())
	}
}

func TestParseTick(t *testing.T) {
	const now, horizon = 100, 90
	cases := []struct {
		in      string
		want    motion.Tick
		wantErr bool
	}{
		{"", now, false},
		{"now", now, false},
		{"now+0", now, false},
		{"now+90", now + 90, false},
		{"now+91", 0, true},  // beyond horizon
		{"now+-3", 0, true},  // negative K
		{"now-5", 0, true},   // past: outside the live window
		{"now+abc", 0, true}, // malformed K
		{"100", 100, false},
		{"190", 190, false},
		{"191", 0, true}, // beyond horizon
		{"99", 0, true},  // precedes now
		{"later", 0, true},
		{"12.5", 0, true},
	}
	for _, c := range cases {
		got, err := parseTick(c.in, now, horizon)
		if (err != nil) != c.wantErr {
			t.Errorf("parseTick(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("parseTick(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// discardWriter is a reusable ResponseWriter that keeps the status and
// drops the body, so a benchmark counts the service's allocations and not
// a recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// tracedQueryOp is BenchmarkTracedQuery's call: one PA snapshot through
// ServeHTTP with tracing at its default — every request traced and filed in
// the store — and no slow-query log. The store's ring and reservoir are
// filled first, so every call evicts one trace.
func tracedQueryOp(tb testing.TB) func() {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	svc, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(1000)
	gcfg.Seed = 7
	g, err := datagen.New(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.Engine().Load(g.InitialStates()); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/query?method=pa&varrho=2&l=60", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		svc.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 2*DefaultTraceBuffer; i++ {
		serve()
	}
	return serve
}

// BenchmarkTracedQuery times tracedQueryOp: the allocations of a traced
// request, its answer's included.
func BenchmarkTracedQuery(b *testing.B) {
	op := tracedQueryOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestTracedQueryAllocs pins BenchmarkTracedQuery at 33 allocations a call:
// the answer, the span tree and record, one attribute list per annotated
// span (integers stay integers until a trace is rendered), and the mux's and
// metrics' per-request share.
func TestTracedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	if n := testing.AllocsPerRun(200, tracedQueryOp(t)); n > 33 {
		t.Errorf("BenchmarkTracedQuery: %v allocs/op, pinned at 33", n)
	}
}
