package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// slowLines decodes every line of a slow-query log.
func slowLines(t *testing.T, log *syncBuffer) []TraceJSON {
	t.Helper()
	var lines []TraceJSON
	sc := bufio.NewScanner(strings.NewReader(log.String()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line TraceJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad slow-log line %q: %v", sc.Text(), err)
		}
		if line.Root == nil {
			t.Fatalf("slow-log line without a span tree: %s", sc.Text())
		}
		lines = append(lines, line)
	}
	return lines
}

// child returns the first child of sp named name, nil when there is none.
func child(sp SpanJSON, name string) *SpanJSON {
	for i := range sp.Children {
		if sp.Children[i].Name == name {
			return &sp.Children[i]
		}
	}
	return nil
}

// childNames lists sp's children by name, comma-separated.
func childNames(sp SpanJSON) string {
	names := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}

func attrMap(sp SpanJSON) map[string]string {
	m := map[string]string{}
	for _, a := range sp.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// countNamed counts the spans named name in the tree under sp, sp included.
func countNamed(sp SpanJSON, name string) int {
	n := 0
	if sp.Name == name {
		n++
	}
	for _, c := range sp.Children {
		n += countNamed(c, name)
	}
	return n
}

// countSpans counts the spans of the tree under sp, sp included.
func countSpans(sp SpanJSON) int {
	n := 1
	for _, c := range sp.Children {
		n += countSpans(c)
	}
	return n
}

// cutSpans drops everything below levels levels of the tree under sp.
func cutSpans(sp *SpanJSON, levels int) {
	if levels <= 1 {
		sp.Children = nil
		return
	}
	for i := range sp.Children {
		cutSpans(&sp.Children[i], levels-1)
	}
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

	var tr TraceJSON
	if resp := getJSON(t, ts.URL+"/debug/traces/"+id, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup status %d", resp.StatusCode)
	}
	if tr.ID != id || tr.Route != "/v1/query" || tr.Status != http.StatusOK || tr.Root == nil {
		t.Fatalf("trace record: %+v", tr)
	}
	if tr.Root.Name != "/v1/query" || tr.Root.DurationMicros != tr.DurationMicros {
		t.Fatalf("root span %q (%dµs) disagrees with record duration %dµs",
			tr.Root.Name, tr.Root.DurationMicros, tr.DurationMicros)
	}
	if int64(tr.ReplyBytes) != resp.ContentLength {
		t.Errorf("trace says replyBytes %d, Content-Length %d", tr.ReplyBytes, resp.ContentLength)
	}
	// The engine subtree hangs off the request root: snapshot → filter/
	// gather/refine/union for an FR query.
	snap := child(*tr.Root, "snapshot")
	if snap == nil || childNames(*snap) != "filter,gather,refine,union" {
		t.Fatalf("root children %s, want a snapshot with filter,gather,refine,union", childNames(*tr.Root))
	}
	// The service's own share hangs off the root too: the encode span says
	// what was formatted, and it is what the client received.
	enc := child(*tr.Root, "encode")
	if enc == nil {
		t.Fatal("no encode span")
	}
	if attrs := attrMap(*enc); attrs["rects"] != strconv.Itoa(len(qr.Rects)) || attrs["bytes"] != strconv.FormatInt(resp.ContentLength, 10) {
		t.Errorf("encode span attrs %v, want rects=%d bytes=%d", attrs, len(qr.Rects), resp.ContentLength)
	}

	// The slow log (threshold 1ns logs everything) recorded the same ID and
	// the same microsecond measurement.
	var found *TraceJSON
	for _, line := range slowLines(t, &log) {
		if line.ID == id {
			found = &line
		}
	}
	if found == nil {
		t.Fatalf("no slow-log line with id %s:\n%s", id, log.String())
	}
	if found.DurationMicros != tr.DurationMicros || found.Root.DurationMicros != tr.DurationMicros {
		t.Fatalf("slow log says %dµs, trace store says %dµs — must be the same measurement",
			found.DurationMicros, tr.DurationMicros)
	}
}

// TestSlowLineIsTheStoredTrace: a slow request's log line is its stored
// trace — the body GET /debug/traces/{id} serves, cut at phaseLevels — field
// for field, for an FR snapshot and an FR interval (whose refine windows the
// cut drops), a tick (whose standing query's snapshot it drops) and an apply
// (decode, then the engine write with its plan and apply, like a tick's).
// The spans count is the whole tree's.
func TestSlowLineIsTheStoredTrace(t *testing.T) {
	var log syncBuffer
	ts := tracedTestService(t, WithSlowQueryLog(time.Nanosecond, 0, &log))
	if code, reply, _ := post(t, ts, "/v1/watch", `{"varrho":2,"l":60,"every":1,"method":"fr"}`); code != http.StatusOK {
		t.Fatalf("watch: status %d: %s", code, reply)
	}
	type request struct {
		id, call, phases string // the root's engine-side call and that call's children
		cut              string // a span name deeper than phaseLevels in the stored tree
	}
	var reqs []request
	for _, q := range []request{
		{call: "snapshot", phases: "filter,gather,refine,union", cut: "window"},
		{call: "interval", phases: "snapshot,snapshot,snapshot,snapshot,union,area", cut: "window"},
	} {
		path := "/v1/query?method=fr&varrho=2&l=60"
		if q.call == "interval" {
			path += "&at=now&until=now%2B3"
		}
		resp := getJSON(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		q.id = resp.Header.Get(TraceIDHeader)
		reqs = append(reqs, q)
	}
	for _, w := range []struct{ route, body string }{
		{"/v1/updates", `{"now":1,"updates":[]}`},
		{"/v1/apply", `{"updates":[{"kind":"insert","tick":1,"id":900001,"x":1,"y":1,"ref":1}]}`},
	} {
		code, reply, id := post(t, ts, w.route, w.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.route, code, reply)
		}
		if w.route == "/v1/updates" {
			reqs = append(reqs, request{id: id, call: "monitor", phases: "subscription", cut: "snapshot"})
		} else {
			reqs = append(reqs, request{id: id, call: "batch", phases: "plan,apply"})
		}
	}
	lines := map[string]TraceJSON{}
	for _, line := range slowLines(t, &log) {
		lines[line.ID] = line
	}
	for _, q := range reqs {
		var stored TraceJSON
		if resp := getJSON(t, ts.URL+"/debug/traces/"+q.id, &stored); resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: status %d", q.id, resp.StatusCode)
		}
		deep := countNamed(*stored.Root, q.cut)
		spans := countSpans(*stored.Root)
		cutSpans(stored.Root, phaseLevels)
		line, ok := lines[q.id]
		if !ok {
			t.Fatalf("no slow-log line for trace %s", q.id)
		}
		if !reflect.DeepEqual(line, stored) {
			t.Errorf("%s: slow-log line\n%+v\nis not the stored trace cut at %d levels\n%+v", q.call, line, phaseLevels, stored)
		}
		call := child(*line.Root, q.call)
		if call == nil || childNames(*call) != q.phases {
			t.Errorf("%s: root children %s, want %s with %s under it", q.call, childNames(*line.Root), q.call, q.phases)
		}
		if q.call == "interval" && attrMap(*line.Root)["until"] != "3" {
			t.Errorf("interval: root attrs %v, want until=3", attrMap(*line.Root))
		}
		if line.Spans != spans {
			t.Errorf("%s: line counts %d spans, the stored tree has %d", q.call, line.Spans, spans)
		}
		if q.cut != "" && (deep == 0 || countNamed(*line.Root, q.cut) != 0) {
			t.Errorf("%s: %d %s spans stored, %d in the line; want some and none", q.call, deep, q.cut, countNamed(*line.Root, q.cut))
		}
	}
}

// TestSampledOutSlowLineKeepsThePhases: with the slow-query log on, a request
// head sampling turned away still records its tree, so its slow line shows
// the engine's phases and the resolved query; it carries no trace ID, and
// neither the response nor the store names one.
func TestSampledOutSlowLineKeepsThePhases(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	var log syncBuffer
	svc, err := New(cfg, WithTracing(0, 16), WithSlowQueryLog(time.Nanosecond, 0, &log))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	loadWorkload(t, ts, 500)
	resp := getJSON(t, ts.URL+"/v1/query?method=fr&varrho=2&l=60", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if h := resp.Header.Get(TraceIDHeader); h != "" {
		t.Errorf("sampled-out response carries %s=%q", TraceIDHeader, h)
	}
	if n := svc.tracer.store.Len(); n != 0 {
		t.Errorf("the store holds %d traces at sample rate 0", n)
	}
	var line *TraceJSON
	for _, l := range slowLines(t, &log) {
		if l.Route == "/v1/query" {
			line = &l
		}
	}
	if line == nil {
		t.Fatalf("no /v1/query line:\n%s", log.String())
	}
	if line.ID != "" {
		t.Errorf("sampled-out line names trace %s", line.ID)
	}
	attrs := attrMap(*line.Root)
	if attrs["method"] != "FR" || attrs["l"] != "60" || attrs["at"] != "0" || attrs["rho"] == "" {
		t.Errorf("root attrs %v, want method=FR l=60 at=0 and rho", attrs)
	}
	snap := child(*line.Root, "snapshot")
	if snap == nil || childNames(*snap) != "filter,gather,refine,union" {
		t.Fatalf("root children %s, want a snapshot with filter,gather,refine,union", childNames(*line.Root))
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
	var tr TraceJSON
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
