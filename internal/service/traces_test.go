package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdr/internal/core"
)

// tracedTestService builds a service with the given options over the
// standard small workload.
func tracedTestService(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	svc, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	loadWorkload(t, ts, 500)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestTraceHeaderResolvesToStoredTree is the acceptance path: the trace ID
// a query response carries resolves at /debug/traces/{id} to a span tree
// whose root duration is exactly the duration the slow-query log recorded
// for the same request — one measurement, three views.
func TestTraceHeaderResolvesToStoredTree(t *testing.T) {
	var log syncBuffer
	ts := tracedTestService(t, WithSlowQueryLog(time.Nanosecond, 0, &log))

	var qr QueryResponse
	resp := getJSON(t, ts.URL+"/v1/query?method=fr&varrho=2&l=60", &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	id := resp.Header.Get(TraceIDHeader)
	if len(id) != 16 {
		t.Fatalf("%s = %q, want a 16-hex trace id", TraceIDHeader, id)
	}

	var tr TraceResponse
	if resp := getJSON(t, ts.URL+"/debug/traces/"+id, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup status %d", resp.StatusCode)
	}
	if tr.ID != id || tr.Route != "/v1/query" || tr.Status != http.StatusOK {
		t.Fatalf("trace record: %+v", tr)
	}
	if tr.Root.Name != "/v1/query" || tr.Root.DurationMicros != tr.DurationMicros {
		t.Fatalf("root span %q (%dµs) disagrees with record duration %dµs",
			tr.Root.Name, tr.Root.DurationMicros, tr.DurationMicros)
	}
	// The engine subtree hangs off the request root: snapshot → filter/
	// refine/union for an FR query.
	names := map[string]bool{}
	var walk func(SpanJSON)
	walk = func(sp SpanJSON) {
		names[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	for _, want := range []string{"snapshot", "filter", "refine", "union"} {
		if !names[want] {
			t.Errorf("span %q missing from stored tree", want)
		}
	}
	// The service's own share hangs off the root too: the encode span says
	// what was formatted, and it is what the client received.
	attrs := map[string]string{}
	for _, c := range tr.Root.Children {
		if c.Name == "encode" {
			for _, a := range c.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	if attrs["rects"] != strconv.Itoa(len(qr.Rects)) || attrs["bytes"] != strconv.FormatInt(resp.ContentLength, 10) {
		t.Errorf("encode span attrs %v, want rects=%d bytes=%d", attrs, len(qr.Rects), resp.ContentLength)
	}

	// The slow log (threshold 1ns logs everything) recorded the same ID and
	// the same microsecond measurement.
	var found *slowQueryLine
	sc := bufio.NewScanner(strings.NewReader(log.String()))
	for sc.Scan() {
		var line slowQueryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad slow-log line %q: %v", sc.Text(), err)
		}
		if line.TraceID == id {
			found = &line
		}
	}
	if found == nil {
		t.Fatalf("no slow-log line with traceId %s:\n%s", id, log.String())
	}
	if found.DurationMicros != tr.DurationMicros {
		t.Fatalf("slow log says %dµs, trace store says %dµs — must be the same measurement",
			found.DurationMicros, tr.DurationMicros)
	}
	if int64(found.ReplyBytes) != resp.ContentLength || found.EncodeMicros > found.DurationMicros {
		t.Errorf("slow log says replyBytes %d (Content-Length %d), encodeMicros %d of %dµs",
			found.ReplyBytes, resp.ContentLength, found.EncodeMicros, found.DurationMicros)
	}
}

// TestTraceListing: /debug/traces lists recent traces newest-first with
// live sampling counters.
func TestTraceListing(t *testing.T) {
	ts := tracedTestService(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query?method=dh-opt&varrho=2&l=60")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// The middleware files a trace before its response leaves, so all three
	// are listed by now.
	var list TraceListResponse
	getJSON(t, ts.URL+"/debug/traces?limit=2", &list)
	if list.Sampled < 3 {
		t.Fatalf("sampled = %d, want >= 3 (stats + queries)", list.Sampled)
	}
	if list.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 at sample rate 1", list.Dropped)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}
	// Newest first, each summary resolvable.
	if list.Traces[0].Time < list.Traces[1].Time {
		t.Errorf("listing not newest-first: %s < %s", list.Traces[0].Time, list.Traces[1].Time)
	}
	var tr TraceResponse
	if resp := getJSON(t, ts.URL+"/debug/traces/"+list.Traces[0].ID, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("summary id %q did not resolve: %d", list.Traces[0].ID, resp.StatusCode)
	}
	if tr.ID != list.Traces[0].ID {
		t.Errorf("resolved trace id %q != summary id %q", tr.ID, list.Traces[0].ID)
	}
}

// TestTracingModesBitIdentical: the query answer must be bit-identical
// whether the request is traced, sampled out, or tracing is disabled
// entirely — observability never changes answers.
func TestTracingModesBitIdentical(t *testing.T) {
	const q = "/v1/query?method=fr&varrho=2&l=60"
	var want QueryResponse

	// Traced (default: sample 1, buffer 256).
	ts := tracedTestService(t)
	resp := getJSON(t, ts.URL+q, &want)
	if resp.Header.Get(TraceIDHeader) == "" {
		t.Fatal("default service did not trace the query")
	}

	// Sampled out: tracing on, rate 0 — every request drops.
	tsOut := tracedTestService(t, WithTracing(0, 16))
	var out QueryResponse
	resp = getJSON(t, tsOut.URL+q, &out)
	if h := resp.Header.Get(TraceIDHeader); h != "" {
		t.Errorf("sampled-out request still carries %s=%q", TraceIDHeader, h)
	}

	// Disabled: buffer 0 removes the machinery; /debug/traces 404s.
	tsOff := tracedTestService(t, WithTracing(1, 0))
	var off QueryResponse
	resp = getJSON(t, tsOff.URL+q, &off)
	if h := resp.Header.Get(TraceIDHeader); h != "" {
		t.Errorf("tracing-disabled request still carries %s=%q", TraceIDHeader, h)
	}
	if resp := getJSON(t, tsOff.URL+"/debug/traces", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces with tracing disabled: status %d, want 404", resp.StatusCode)
	}

	for name, got := range map[string]QueryResponse{"sampled-out": out, "disabled": off} {
		if len(got.Rects) != len(want.Rects) {
			t.Fatalf("%s: %d rects, traced run had %d", name, len(got.Rects), len(want.Rects))
		}
		for i := range got.Rects {
			if got.Rects[i] != want.Rects[i] {
				t.Fatalf("%s: rect %d = %+v, traced run had %+v", name, i, got.Rects[i], want.Rects[i])
			}
		}
		if got.Area != want.Area {
			t.Fatalf("%s: area %v, traced run had %v", name, got.Area, want.Area)
		}
	}

	// Rate-0 sampling shows up on the drop counter.
	var st StatsResponse
	getJSON(t, tsOut.URL+"/v1/stats", &st)
	if st.TraceDropped < 1 {
		t.Errorf("traceDropped = %d, want >= 1 at sample rate 0", st.TraceDropped)
	}
	if st.TraceSampled != 0 {
		t.Errorf("traceSampled = %d, want 0 at sample rate 0", st.TraceSampled)
	}
}

// TestUnknownTraceLookups: bad and unknown ids answer 400/404, not 500.
func TestUnknownTraceLookups(t *testing.T) {
	ts := tracedTestService(t)
	if resp := getJSON(t, ts.URL+"/debug/traces/zzzz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/debug/traces/00000000000000ff", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestStatsRuntimeFields: the stats endpoint's runtime fields come from
// the same instruments as /metrics.
func TestStatsRuntimeFields(t *testing.T) {
	ts := tracedTestService(t)
	resp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=2&l=60")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", st.Goroutines)
	}
	body := fetchMetrics(t, ts)
	for _, name := range []string{
		"pdr_go_goroutines", "pdr_go_heap_alloc_bytes", "pdr_process_uptime_seconds",
		"pdr_trace_sampled_total", "pdr_trace_store_entries",
	} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if v := metricValue(body, "pdr_build_info"); v == "" {
		// build_info always carries labels.
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "pdr_build_info{") {
				found = true
				break
			}
		}
		if !found {
			t.Error("pdr_build_info missing from exposition")
		}
	}
}

// TestSlowQueryLogCap: beyond the cap, slow lines stop being written and
// the drop counter moves; the slow-queries counter keeps counting.
func TestSlowQueryLogCap(t *testing.T) {
	var log syncBuffer
	ts := tracedTestService(t, WithSlowQueryLog(time.Nanosecond, 2, &log))
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	dropped := metricValue(fetchMetrics(t, ts), "pdr_http_slow_log_dropped_total")
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(log.String()))
	for sc.Scan() {
		lines++
	}
	if lines > 2 {
		t.Errorf("cap 2 but %d lines written:\n%s", lines, log.String())
	}
	if dropped == "" || dropped == "0" {
		t.Errorf("pdr_http_slow_log_dropped_total = %q, want > 0", dropped)
	}
}
