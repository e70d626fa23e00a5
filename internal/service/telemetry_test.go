package service

import (
	"bufio"
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

// TestMetricsEndpoint is the acceptance path: /metrics serves Prometheus
// text, and the per-method latency histograms and filter counters move
// after a /v1/query call.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 1000)

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
	loadWorkload(t, ts, 500)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query?method=dh-opt&varrho=2&l=60")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Register a watch so the subscription gauge is non-zero.
	body, _ := json.Marshal(WatchRequest{Varrho: 2, L: 60, Every: 1, Method: "dh-opt"})
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sr := struct {
		Subscriptions int              `json:"subscriptions"`
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
	if sr.Subscriptions != 1 {
		t.Errorf("stats subscriptions = %d, want 1", sr.Subscriptions)
	}
	if sr.QueriesServed["DH-opt"] != 3 {
		t.Errorf("stats queriesServed[DH-opt] = %d, want 3", sr.QueriesServed["DH-opt"])
	}
	if sr.PoolHitRatio < 0 || sr.PoolHitRatio > 1 {
		t.Errorf("pool hit ratio %g outside [0,1]", sr.PoolHitRatio)
	}
	body2 := fetchMetrics(t, ts)
	if v := metricValue(body2, `pdr_engine_queries_total{method="DH-opt"}`); v != "3" {
		t.Errorf("metrics DH-opt count = %q, want 3 (stats said %d)", v, sr.QueriesServed["DH-opt"])
	}
	if v := metricValue(body2, "pdr_monitor_subscriptions"); v != "1" {
		t.Errorf("metrics subscriptions = %q, want 1", v)
	}
	_ = svc
}

func TestSlowQueryLog(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	var log syncBuffer
	// A zero-ish threshold logs every request.
	svc, err := New(cfg, WithSlowQueryLog(time.Nanosecond, &log))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	loadWorkload(t, ts, 500)

	resp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var queryLine *slowQueryLine
	sc := bufio.NewScanner(strings.NewReader(log.String()))
	for sc.Scan() {
		var line slowQueryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad slow-log line %q: %v", sc.Text(), err)
		}
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
	if queryLine.Query == nil {
		t.Fatal("slow log line missing engine query detail")
	}
	if queryLine.Query.Method != "FR" || queryLine.Query.L != 60 {
		t.Errorf("slow log query detail: %+v", queryLine.Query)
	}
	phases := make([]string, 0, len(queryLine.Query.Phases))
	for _, p := range queryLine.Query.Phases {
		phases = append(phases, p.Phase)
	}
	if got := strings.Join(phases, ","); got != "filter,refine,union" {
		t.Errorf("trace phases = %s, want filter,refine,union", got)
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
	svc, err := New(core.DefaultConfig(), WithSlowQueryLog(time.Nanosecond, &log))
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
		{"now-5", 0, true},   // past: /v1/past territory
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

func TestParsePastTick(t *testing.T) {
	const now = 100
	cases := []struct {
		in      string
		want    motion.Tick
		wantErr bool
	}{
		{"now-1", 99, false},
		{"now-100", 0, false},
		{"now-101", 0, true}, // underflows past the start of history
		{"now-0", 0, true},   // not in the past
		{"now--3", 0, true},
		{"50", 50, false},
		{"-1", 0, true},  // before the start of history
		{"100", 0, true}, // == now
		{"101", 0, true}, // future
		{"now", 0, true},
		{"now+5", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := parsePastTick(c.in, now)
		if (err != nil) != c.wantErr {
			t.Errorf("parsePastTick(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("parsePastTick(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseMethodEdgeCases(t *testing.T) {
	cases := []struct {
		in      string
		want    core.Method
		wantErr bool
	}{
		{"", core.FR, false},
		{"fr", core.FR, false},
		{"FR", core.FR, false}, // case-insensitive
		{"Pa", core.PA, false},
		{"dh-opt", core.DHOptimistic, false},
		{"DH-PESS", core.DHPessimistic, false},
		{"bf", core.BruteForce, false},
		{"dh", 0, true},
		{"brute", 0, true},
		{" fr", 0, true}, // no trimming: the URL layer already decoded
	}
	for _, c := range cases {
		got, err := parseMethod(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseMethod(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("parseMethod(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
