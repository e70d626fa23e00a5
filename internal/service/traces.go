package service

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pdr/internal/telemetry"
	"pdr/internal/tracestore"
)

// tracer decides per request whether to trace (probabilistic head
// sampling) and files completed traces into the bounded store. All state
// is atomic or internally locked — the middleware uses it without a lock.
type tracer struct {
	store   *tracestore.Store
	rate    float64 // head-sampling probability in [0, 1]
	seq     atomic.Uint64
	sampled *telemetry.Counter
	dropped *telemetry.Counter
}

// maybeStart returns a new trace for this request, or nil when head
// sampling decides against. The decision is a hash of an atomic sequence
// number — deterministic for a given request ordinal, lock-free, and free
// of the global math/rand state.
func (t *tracer) maybeStart(route string) *telemetry.Trace {
	if !t.admit() {
		t.dropped.Inc()
		return nil
	}
	return telemetry.NewTrace(route)
}

// admit implements the sampling decision: splitmix64 of the request
// ordinal scaled into [0, 1), admitted when below the configured rate.
func (t *tracer) admit() bool {
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	x := t.seq.Add(1)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11)/(1<<53) < t.rate
}

// finish files a completed trace. The span tree must be fully ended —
// store readers render it concurrently.
func (t *tracer) finish(tr *telemetry.Trace, route string, r *http.Request, status int, elapsed time.Duration) {
	t.store.Add(&tracestore.Record{
		ID:       tr.ID(),
		Time:     time.Now(),
		Route:    route,
		Method:   r.Method,
		URL:      r.URL.String(),
		Status:   status,
		Duration: elapsed,
		Root:     tr.Root(),
	})
	t.sampled.Inc()
}

// TraceSummaryJSON is one entry of the GET /debug/traces listing.
type TraceSummaryJSON struct {
	ID             string `json:"id"`
	Time           string `json:"time"`
	Route          string `json:"route"`
	HTTPMethod     string `json:"httpMethod"`
	URL            string `json:"url"`
	Status         int    `json:"status"`
	DurationMicros int64  `json:"durationMicros"`
	Spans          int    `json:"spans"`
}

// TraceListResponse is the body of GET /debug/traces.
type TraceListResponse struct {
	Sampled int64              `json:"sampled"`
	Dropped int64              `json:"dropped"`
	Evicted int64              `json:"evicted"`
	Stored  int                `json:"stored"`
	Traces  []TraceSummaryJSON `json:"traces"`
}

// SpanJSON is one node of a rendered span tree. Start offsets are
// relative to the trace start; the record's time field anchors them to
// the wall clock.
type SpanJSON struct {
	Name           string           `json:"name"`
	StartMicros    int64            `json:"startMicros"`
	DurationMicros int64            `json:"durationMicros"`
	Attrs          []telemetry.Attr `json:"attrs,omitempty"`
	Children       []SpanJSON       `json:"children,omitempty"`
}

// TraceResponse is the body of GET /debug/traces/{id}.
type TraceResponse struct {
	ID             string   `json:"id"`
	Time           string   `json:"time"`
	Route          string   `json:"route"`
	HTTPMethod     string   `json:"httpMethod"`
	URL            string   `json:"url"`
	Status         int      `json:"status"`
	DurationMicros int64    `json:"durationMicros"`
	Root           SpanJSON `json:"root"`
}

func spanJSON(sp *telemetry.Span) SpanJSON {
	out := SpanJSON{
		Name:           sp.Name,
		StartMicros:    sp.Start.Microseconds(),
		DurationMicros: sp.Duration.Microseconds(),
		Attrs:          sp.Attrs,
	}
	if len(sp.Children) > 0 {
		out.Children = make([]SpanJSON, len(sp.Children))
		for i, c := range sp.Children {
			out.Children[i] = spanJSON(c)
		}
	}
	return out
}

func traceSummary(rec *tracestore.Record) TraceSummaryJSON {
	return TraceSummaryJSON{
		ID:             rec.ID.String(),
		Time:           rec.Time.UTC().Format(time.RFC3339Nano),
		Route:          rec.Route,
		HTTPMethod:     rec.Method,
		URL:            rec.URL,
		Status:         rec.Status,
		DurationMicros: rec.Duration.Microseconds(),
		Spans:          rec.Root.CountSpans(),
	}
}

// handleTraces serves GET /debug/traces: recent trace summaries, newest
// first (?slowest=1 lists the slowest-kept reservoir instead, ?limit=N
// bounds the listing, default 50). Registered raw — trace reads are never
// themselves traced or counted as requests.
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		httpError(w, http.StatusNotFound, "tracing is disabled (trace buffer 0)")
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	var recs []*tracestore.Record
	if r.URL.Query().Get("slowest") == "1" {
		recs = s.tracer.store.Slowest(limit)
	} else {
		recs = s.tracer.store.Recent(limit)
	}
	out := TraceListResponse{
		Sampled: s.tracer.sampled.Value(),
		Dropped: s.tracer.dropped.Value(),
		Evicted: s.tracer.store.Evictions(),
		Stored:  s.tracer.store.Len(),
		Traces:  make([]TraceSummaryJSON, len(recs)),
	}
	for i, rec := range recs {
		out.Traces[i] = traceSummary(rec)
	}
	writeJSON(w, out)
}

// handleTraceByID serves GET /debug/traces/{id}: the full span tree of
// one retained trace.
func (s *Service) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		httpError(w, http.StatusNotFound, "tracing is disabled (trace buffer 0)")
		return
	}
	id, err := telemetry.ParseTraceID(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := s.tracer.store.Get(id)
	if rec == nil {
		httpError(w, http.StatusNotFound, "trace %s is not in the store (never sampled, or evicted)", r.PathValue("id"))
		return
	}
	writeJSON(w, TraceResponse{
		ID:             rec.ID.String(),
		Time:           rec.Time.UTC().Format(time.RFC3339Nano),
		Route:          rec.Route,
		HTTPMethod:     rec.Method,
		URL:            rec.URL,
		Status:         rec.Status,
		DurationMicros: rec.Duration.Microseconds(),
		Root:           spanJSON(rec.Root),
	})
}
