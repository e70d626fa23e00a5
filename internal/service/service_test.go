package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pdr/internal/cache"
	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

func testService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	return testServiceWith(t, func(*core.Config) {})
}

// testServiceWith serves the test configuration after mod has adjusted it.
func testServiceWith(t *testing.T, mod func(*core.Config)) (*Service, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	mod(&cfg)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// shardedTestService is testService at four partitions, with the archive on.
func shardedTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	return testServiceWith(t, func(cfg *core.Config) {
		cfg.Shards = 4
		cfg.KeepHistory = true
	})
}

// advanceTicks advances the generator n ticks, posting each batch of
// updates so the server's clock follows.
func advanceTicks(t *testing.T, ts *httptest.Server, g *datagen.Generator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ups := g.Advance()
		var ur UpdatesRequest
		ur.Now = g.Now()
		for _, u := range ups {
			kind := wire.KindInsert
			if u.Kind == motion.Delete {
				kind = wire.KindDelete
			}
			ur.Updates = append(ur.Updates, wire.FromState(kind, u.State, u.At))
		}
		body, _ := json.Marshal(ur)
		resp, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("updates status %d", resp.StatusCode)
		}
	}
}

func loadWorkload(t *testing.T, ts *httptest.Server, n int) *datagen.Generator {
	t.Helper()
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = 7
	g, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var req LoadRequest
	for _, s := range g.InitialStates() {
		req.States = append(req.States, wire.FromState(wire.KindState, s, 0))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.Loaded != n {
		t.Fatalf("loaded %d, want %d", lr.Loaded, n)
	}
	return g
}

func TestHealthz(t *testing.T) {
	_, ts := testService(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestLoadUpdatesQueryFlow(t *testing.T) {
	_, ts := testService(t)
	g := loadWorkload(t, ts, 2000)

	// Apply one tick of updates.
	ups := g.Advance()
	var ur UpdatesRequest
	ur.Now = g.Now()
	for _, u := range ups {
		kind := wire.KindInsert
		if u.Kind == motion.Delete {
			kind = wire.KindDelete
		}
		ur.Updates = append(ur.Updates, wire.FromState(kind, u.State, u.At))
	}
	body, _ := json.Marshal(ur)
	resp, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates status %d", resp.StatusCode)
	}
	var urr UpdatesResponse
	if err := json.NewDecoder(resp.Body).Decode(&urr); err != nil {
		t.Fatal(err)
	}
	if urr.Objects != 2000 || urr.Now != g.Now() {
		t.Fatalf("updates response %+v", urr)
	}

	// Query via FR with outline rings.
	qresp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60&at=now%2B10&outline=1")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qresp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Method != "FR" {
		t.Errorf("method %q", qr.Method)
	}
	if len(qr.Rects) == 0 || qr.Area <= 0 {
		t.Errorf("empty answer: %d rects, area %g", len(qr.Rects), qr.Area)
	}
	if len(qr.Rings) == 0 {
		t.Error("outline=1 but no rings returned")
	}
}

func TestIntervalQueryOverHTTP(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 1000)
	resp, err := http.Get(ts.URL + "/v1/query?method=pa&varrho=1&l=60&at=now&until=now%2B3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interval query status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Until == nil || *qr.Until != 3 {
		t.Errorf("until = %v, want 3", qr.Until)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 100)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/query?method=banana&l=60&varrho=1", http.StatusBadRequest},
		{"/v1/query?method=fr&l=abc&varrho=1", http.StatusBadRequest},
		{"/v1/query?method=fr&l=60", http.StatusBadRequest},         // no rho
		{"/v1/query?method=fr&l=60&rho=xyz", http.StatusBadRequest}, // bad rho
		{"/v1/query?method=fr&l=60&varrho=1&at=later", http.StatusBadRequest},
		{"/v1/query?method=fr&l=60&varrho=1&at=9999", http.StatusBadRequest},  // beyond horizon
		{"/v1/query?method=fr&l=60&varrho=1&at=now-3", http.StatusBadRequest}, // past: /v1/past territory
		{"/v1/query?method=fr&l=60&varrho=1&until=now%2B9999", http.StatusBadRequest},
		{"/v1/query?method=pa&l=45&varrho=1", http.StatusUnprocessableEntity}, // PA wrong l
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.code)
		}
	}
}

func TestUpdatesValidationErrors(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 100)
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	// A "state" record is not an update.
	body, _ := json.Marshal(UpdatesRequest{Now: 1, Updates: []wire.Record{{Kind: wire.KindState}}})
	resp, err = http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("state-as-update: status %d", resp.StatusCode)
	}
	// Deleting an unknown object conflicts.
	body, _ = json.Marshal(UpdatesRequest{Now: 1, Updates: []wire.Record{
		{Kind: wire.KindDelete, ID: 999999, Tick: 1},
	}})
	resp, err = http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unknown delete: status %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 500)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Objects != 500 {
		t.Errorf("stats objects = %d, want 500", sr.Objects)
	}
	if sr.HistogramBytes == 0 || sr.SurfaceBytes == 0 || sr.IndexPages == 0 {
		t.Errorf("stats missing structure sizes: %+v", sr)
	}
	if sr.UptimeHorizon != 90 {
		t.Errorf("horizon = %d, want 90", sr.UptimeHorizon)
	}
}

func TestContoursEndpoint(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 3000)
	resp, err := http.Get(ts.URL + "/v1/contours?level=0.0001&res=48")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contours status %d", resp.StatusCode)
	}
	var cr ContourResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Segments) == 0 {
		t.Error("no contour segments at a low level over 3000 objects")
	}
	// Bad parameters.
	for _, u := range []string{
		"/v1/contours",                 // missing level
		"/v1/contours?level=1&res=x",   // bad res
		"/v1/contours?level=1&res=1",   // res too small
		"/v1/contours?level=1&at=9999", // out of window
	} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s unexpectedly succeeded", u)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The mutex must keep concurrent readers and writers safe; exercised
	// with parallel HTTP traffic.
	_, ts := testService(t)
	g := loadWorkload(t, ts, 1000)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/query?method=pa&varrho=%d&l=60", ts.URL, 1+w%3))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// Concurrent writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			ups := g.Advance()
			var ur UpdatesRequest
			ur.Now = g.Now()
			for _, u := range ups {
				kind := wire.KindInsert
				if u.Kind == motion.Delete {
					kind = wire.KindDelete
				}
				ur.Updates = append(ur.Updates, wire.FromState(kind, u.State, u.At))
			}
			body, _ := json.Marshal(ur)
			resp, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("updates status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWatchLifecycle(t *testing.T) {
	_, ts := testService(t)
	g := loadWorkload(t, ts, 1500)

	// Register a standing query.
	body, _ := json.Marshal(WatchRequest{Varrho: 2, L: 60, Ahead: 5, Every: 1, Method: "pa"})
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	var wr WatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if wr.ID == 0 {
		t.Fatal("watch returned zero id")
	}

	// The next update tick carries an event (first evaluation).
	ups := g.Advance()
	var ur UpdatesRequest
	ur.Now = g.Now()
	for _, u := range ups {
		kind := wire.KindInsert
		if u.Kind == motion.Delete {
			kind = wire.KindDelete
		}
		ur.Updates = append(ur.Updates, wire.FromState(kind, u.State, u.At))
	}
	body, _ = json.Marshal(ur)
	resp2, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var urr UpdatesResponse
	if err := json.NewDecoder(resp2.Body).Decode(&urr); err != nil {
		t.Fatal(err)
	}
	if len(urr.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(urr.Events))
	}
	ev := urr.Events[0]
	if ev.SubID != wr.ID || !ev.First {
		t.Errorf("unexpected event %+v", ev)
	}
	if ev.Target != ev.At+5 {
		t.Errorf("event target %d, want at+5=%d", ev.Target, ev.At+5)
	}

	// Unregister and confirm no more events.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/watch/%d", ts.URL, wr.ID), nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("unwatch status %d", resp3.StatusCode)
	}
	// Double delete -> 404.
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("double unwatch status %d", resp4.StatusCode)
	}
}

func TestWatchValidation(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 100)
	for _, body := range []string{
		`{`,                                     // malformed
		`{"l":60,"varrho":1,"method":"banana"}`, // bad method
		`{"l":0,"varrho":1,"method":"pa"}`,      // bad l
		`{"l":60,"varrho":1,"ahead":99,"method":"pa"}`, // ahead > W
	} {
		resp, err := http.Post(ts.URL+"/v1/watch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("watch body %q unexpectedly succeeded", body)
		}
	}
	// Bad id on delete.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/watch/zzz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
}

func TestPastEndpoint(t *testing.T) {
	_, ts := testServiceWith(t, func(cfg *core.Config) { cfg.KeepHistory = true })
	g := loadWorkload(t, ts, 1500)
	// Advance a few ticks so there is a past to query.
	advanceTicks(t, ts, g, 5)
	resp, err := http.Get(ts.URL + "/v1/past?varrho=2&l=60&at=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("past status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Method != "past-exact" || qr.At != 2 {
		t.Errorf("past response: %+v", qr)
	}
	// Validation: a future tick is a clear 400 (not an engine 422); a
	// genuinely past tick on a non-history server still 422s.
	r2, _ := http.Get(ts.URL + "/v1/past?varrho=2&l=60&at=9999")
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("future past query status %d", r2.StatusCode)
	}
	// The now-K form resolves against the advanced clock.
	r2b, err := http.Get(ts.URL + "/v1/past?varrho=2&l=60&at=now-3")
	if err != nil {
		t.Fatal(err)
	}
	defer r2b.Body.Close()
	if r2b.StatusCode != http.StatusOK {
		t.Errorf("now-3 past query status %d", r2b.StatusCode)
	}
	var qr2 QueryResponse
	if err := json.NewDecoder(r2b.Body).Decode(&qr2); err != nil {
		t.Fatal(err)
	}
	if qr2.At != g.Now()-3 {
		t.Errorf("now-3 resolved to %d, want %d", qr2.At, g.Now()-3)
	}
	_, ts2 := testService(t) // history disabled
	g2 := loadWorkload(t, ts2, 50)
	advanceTicks(t, ts2, g2, 1)
	r3, _ := http.Get(ts2.URL + "/v1/past?varrho=2&l=60&at=0")
	r3.Body.Close()
	if r3.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("history-disabled past query status %d", r3.StatusCode)
	}
	// Bad params.
	r4, _ := http.Get(ts.URL + "/v1/past?varrho=2&l=60&at=now")
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Errorf("at=now status %d", r4.StatusCode)
	}
	// A pre-history tick is a clear 400, not an engine error — even with a
	// clock so fresh that now-K underflows tick 0.
	for _, at := range []string{"-1", "now-9999"} {
		r5, _ := http.Get(ts.URL + "/v1/past?varrho=2&l=60&at=" + at)
		r5.Body.Close()
		if r5.StatusCode != http.StatusBadRequest {
			t.Errorf("at=%s status %d, want 400", at, r5.StatusCode)
		}
	}
}

// cachedTestService is testService with the result cache enabled.
func cachedTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	return testServiceWith(t, func(cfg *core.Config) { cfg.CacheBytes = 16 << 20 })
}

// TestQueryCacheOverHTTP drives the full loop: the second identical query
// is served from the cache (cached=true, zero IOs, identical answer), the
// stats endpoint reports the counters, and /metrics exposes the same
// instruments under pdr_cache_*.
func TestQueryCacheOverHTTP(t *testing.T) {
	svc, ts := cachedTestService(t)
	loadWorkload(t, ts, 1500)

	url := ts.URL + "/v1/query?method=fr&varrho=3&l=60&at=now%2B5"
	fetch := func() QueryResponse {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	cold := fetch()
	if cold.Cached {
		t.Error("first query claims cached")
	}
	warm := fetch()
	if !warm.Cached {
		t.Error("second identical query not served from cache")
	}
	if warm.IOs != 0 {
		t.Errorf("cached query charged %d IOs", warm.IOs)
	}
	if len(warm.Rects) != len(cold.Rects) || warm.Area != cold.Area {
		t.Errorf("cached answer differs: %d rects area %g vs %d rects area %g",
			len(warm.Rects), warm.Area, len(cold.Rects), cold.Area)
	}
	if cold.WallMicros == 0 {
		t.Error("wallMicros missing from the query response")
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.CacheMisses < 1 || sr.CacheHits < 1 {
		t.Errorf("stats cache counters = hits %d misses %d, want both >= 1", sr.CacheHits, sr.CacheMisses)
	}
	if sr.CacheHitRatio <= 0 {
		t.Errorf("cacheHitRatio = %g, want > 0", sr.CacheHitRatio)
	}
	if sr.CacheBytes <= 0 || sr.CacheEntries <= 0 {
		t.Errorf("cache residency = %d bytes / %d entries, want > 0", sr.CacheBytes, sr.CacheEntries)
	}

	// /metrics exposes the same instruments, by the stats' values.
	body := getMetricsBody(t, ts)
	cst := svc.Engine().CacheStats()
	for metric, want := range map[string]int64{
		"pdr_cache_hits_total":                cst.Hits,
		"pdr_cache_misses_total":              cst.Misses,
		"pdr_cache_singleflight_shared_total": cst.Shared,
		"pdr_cache_entries":                   cst.Entries,
	} {
		if !strings.Contains(body, fmt.Sprintf("%s %d", metric, want)) {
			t.Errorf("/metrics missing %q with value %d", metric, want)
		}
	}
}

// TestSingleflightSharedMetric pins the shared-flight counter's journey to
// /metrics. A real query's flight can settle before any concurrent
// duplicate registers on a small host (the engine-level concurrency stress
// is core's TestCacheSingleflightStress), so this test constructs the
// shared flight deterministically against the service's wired cache: the
// winner blocks in compute until every loser is observably waiting.
func TestSingleflightSharedMetric(t *testing.T) {
	svc, ts := cachedTestService(t)
	qc := svc.Engine().Cache()

	const losers = 3
	k := cache.Key{Epoch: 999, At: 42, Rho: 0.5, L: 60}
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcome, err := qc.Do(k, func() (*cache.Entry, error) {
			close(entered)
			<-release
			return &cache.Entry{CPU: time.Millisecond}, nil
		})
		if err != nil || outcome != cache.Computed {
			t.Errorf("winner: outcome %v, err %v", outcome, err)
		}
	}()
	<-entered
	for i := 0; i < losers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, outcome, err := qc.Do(k, func() (*cache.Entry, error) {
				return nil, fmt.Errorf("loser must not evaluate")
			})
			if err != nil || outcome != cache.Shared {
				t.Errorf("loser: outcome %v, err %v", outcome, err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for qc.Stats().Waiting < losers {
		if time.Now().After(deadline) {
			t.Fatal("losers never blocked on the winner's flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	cst := svc.Engine().CacheStats()
	if cst.Shared != losers {
		t.Fatalf("shared = %d, want %d", cst.Shared, losers)
	}
	body := getMetricsBody(t, ts)
	if !strings.Contains(body, fmt.Sprintf("pdr_cache_singleflight_shared_total %d", cst.Shared)) {
		t.Errorf("/metrics does not report %d shared flights", cst.Shared)
	}
}

func getMetricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServiceFlowAcrossShards drives the full HTTP surface at four
// partitions and cross-checks every query answer against a one-partition
// service running the identical workload: the -shards flag must be invisible
// in the API's responses.
func TestServiceFlowAcrossShards(t *testing.T) {
	_, sharded := shardedTestService(t)
	_, plain := testService(t)

	gs := loadWorkload(t, sharded, 2000)
	gp := loadWorkload(t, plain, 2000)
	advanceTicks(t, sharded, gs, 3)
	advanceTicks(t, plain, gp, 3)

	for _, q := range []string{
		"/v1/query?method=fr&varrho=2&l=60&at=now%2B10",
		"/v1/query?method=dh-opt&varrho=2&l=60&at=now%2B5",
		"/v1/query?method=bf&varrho=2&l=60&at=now",
		"/v1/query?method=fr&varrho=2&l=60&until=now%2B4",
	} {
		want := getJSONBody(t, plain, q)
		got := getJSONBody(t, sharded, q)
		// The trace header differs; the decoded payloads must not, except
		// for measured costs.
		scrub := func(m map[string]any) {
			for _, k := range []string{"cpuMicros", "wallMicros", "ios", "totalMicros", "cached", "cachedCpuMicros"} {
				delete(m, k)
			}
		}
		scrub(want)
		scrub(got)
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%s diverges between four partitions and one:\n  four: %s\n  one:  %s", q, gb, wb)
		}
	}

	// The archives answer over partitions (concatenated gathers).
	presp, err := http.Get(sharded.URL + "/v1/past?varrho=2&l=60&at=1")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("past status %d", presp.StatusCode)
	}

	cresp, err := http.Get(sharded.URL + "/v1/contours?level=0.0001&res=48")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("contours status %d", cresp.StatusCode)
	}
	var st StatsResponse
	sresp, err := http.Get(sharded.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 2000 {
		t.Fatalf("stats objects = %d, want 2000", st.Objects)
	}

	// The per-partition instruments are on the scrape path at any count.
	for _, ts := range []*httptest.Server{sharded, plain} {
		body := getMetricsBody(t, ts)
		for _, name := range []string{"pdr_shard_count", "pdr_shard_objects", "pdr_shard_straddlers"} {
			if !strings.Contains(body, name) {
				t.Errorf("metrics exposition missing %s", name)
			}
		}
	}
}

func getJSONBody(t *testing.T, ts *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status %d", path, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestApplyEndpoint exercises POST /v1/apply at one partition and at four:
// between-tick writes land without moving the clock, and state-mismatched
// deletes are rejected.
func TestApplyEndpoint(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ts := testServiceWith(t, func(cfg *core.Config) { cfg.Shards = shards })
			applyEndpoint(t, ts)
		})
	}
}

func applyEndpoint(t *testing.T, ts *httptest.Server) {
	loadWorkload(t, ts, 500)

	ins := wire.Record{Kind: wire.KindInsert, Tick: 0, ID: 900001, X: 400, Y: 400, VX: 2, VY: 1, Ref: 0}
	del := ins
	del.Kind = wire.KindDelete
	body, _ := json.Marshal(ApplyRequest{Updates: []wire.Record{ins, del}})
	resp, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply status %d", resp.StatusCode)
	}
	var ar ApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 2 || ar.Objects != 500 || ar.Now != 0 {
		t.Fatalf("apply response %+v (insert+delete must leave population and clock unchanged)", ar)
	}

	// A delete whose state does not match the live movement is a conflict.
	bogus := wire.Record{Kind: wire.KindDelete, Tick: 0, ID: 900002, X: 1, Y: 1}
	body, _ = json.Marshal(ApplyRequest{Updates: []wire.Record{bogus}})
	r2, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("bogus delete status %d, want %d", r2.StatusCode, http.StatusConflict)
	}

	// A record kind that is not an update is a bad request.
	body, _ = json.Marshal(ApplyRequest{Updates: []wire.Record{{Kind: wire.KindState, ID: 1}}})
	r3, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("state-record apply status %d, want %d", r3.StatusCode, http.StatusBadRequest)
	}
}
