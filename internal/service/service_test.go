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

// loadWorkload preloads n generator objects into the service's engine, as
// pdrserve -data does before it serves.
func loadWorkload(t *testing.T, svc *Service, n int) *datagen.Generator {
	t.Helper()
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = 7
	g, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Engine().Load(g.InitialStates()); err != nil {
		t.Fatal(err)
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
	svc, ts := testService(t)
	g := loadWorkload(t, svc, 2000)

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

	// Query via FR.
	qresp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60&at=now%2B10")
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
}

func TestIntervalQueryOverHTTP(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, svc, 1000)
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
	svc, ts := testService(t)
	loadWorkload(t, svc, 100)
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
		{"/v1/query?method=fr&l=60&varrho=1&at=now-3", http.StatusBadRequest}, // past: outside the live window
		{"/v1/query?method=fr&l=60&varrho=1&until=now%2B9999", http.StatusBadRequest},
		{"/v1/query?method=pa&l=45&varrho=1", http.StatusUnprocessableEntity}, // PA wrong l
		// An interval the engine rejects is a 422 like a snapshot, not a
		// dropped connection.
		{"/v1/query?method=pa&l=45&varrho=1&until=now%2B2", http.StatusUnprocessableEntity},
		{"/v1/query?method=fr&l=60&varrho=1&at=now%2B3&until=now%2B1", http.StatusUnprocessableEntity},
		// ParseFloat reads NaN and Inf; the engine rejects them.
		{"/v1/query?method=fr&l=60&rho=NaN", http.StatusUnprocessableEntity},
		{"/v1/query?method=fr&l=60&rho=Inf", http.StatusUnprocessableEntity},
		{"/v1/query?method=fr&l=Inf&varrho=1", http.StatusUnprocessableEntity},
		// The baselines and outlines are library features, not served.
		{"/v1/query?method=bf&l=60&varrho=1", http.StatusBadRequest},
		{"/v1/query?method=fr&l=60&varrho=1&outline=0", http.StatusBadRequest},
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
	svc, ts := testService(t)
	loadWorkload(t, svc, 100)
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
	svc, ts := testService(t)
	loadWorkload(t, svc, 500)
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

func TestConcurrentQueries(t *testing.T) {
	// The mutex must keep concurrent readers and writers safe; exercised
	// with parallel HTTP traffic.
	svc, ts := testService(t)
	g := loadWorkload(t, svc, 1000)
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
	loadWorkload(t, svc, 1500)

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

// TestApplyEndpoint exercises POST /v1/apply: between-tick writes land
// without moving the clock, and state-mismatched deletes are rejected.
func TestApplyEndpoint(t *testing.T) {
	// The case keeps the subtest name it had when the engine could be split
	// into partitions; there is one engine now.
	t.Run("shards=1", func(t *testing.T) {
		svc, ts := testService(t)
		loadWorkload(t, svc, 500)

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
	})
}
