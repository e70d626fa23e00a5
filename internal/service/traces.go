package service

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pdr/internal/telemetry"
	"pdr/internal/tracestore"
)

// tracer decides per request whether the store keeps its trace
// (probabilistic head sampling) and files completed traces there. All state
// is atomic or internally locked — the middleware uses it without a lock.
type tracer struct {
	store   *tracestore.Store
	rate    float64 // head-sampling probability in [0, 1]
	seq     atomic.Uint64
	sampled *telemetry.Counter
	dropped *telemetry.Counter
}

// sample reports whether head sampling admits this request's trace to the
// store, counting the requests it turns away. The decision is a hash of an
// atomic sequence number — deterministic for a given request ordinal,
// lock-free, and free of the global math/rand state.
func (t *tracer) sample() bool {
	if t.admit() {
		return true
	}
	t.dropped.Inc()
	return false
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
func (t *tracer) finish(rec *tracestore.Record) {
	t.store.Add(rec)
	t.sampled.Inc()
}

// TraceListResponse is the body of GET /debug/traces.
type TraceListResponse struct {
	Sampled int64       `json:"sampled"`
	Dropped int64       `json:"dropped"`
	Evicted int64       `json:"evicted"`
	Stored  int         `json:"stored"`
	Traces  []TraceJSON `json:"traces"`
}

// TraceJSON is one request's record as every trace view renders it: an
// entry of GET /debug/traces (no root), the body of GET /debug/traces/{id}
// (the whole tree) and a slow-query log line (the tree cut at phaseLevels).
// Spans counts the whole tree however much of it is rendered.
type TraceJSON struct {
	// ID is absent from the slow-query line of a request head sampling
	// turned away: its trace is in no store.
	ID             string    `json:"id,omitempty"`
	Time           string    `json:"time"`
	Route          string    `json:"route"`
	HTTPMethod     string    `json:"httpMethod"`
	URL            string    `json:"url"`
	Status         int       `json:"status"`
	DurationMicros int64     `json:"durationMicros"`
	ReplyBytes     int       `json:"replyBytes"`
	Spans          int       `json:"spans"`
	Root           *SpanJSON `json:"root,omitempty"`
}

// SpanJSON is one node of a rendered span tree. Start offsets are
// relative to the trace start, which is the record's time (when the
// request finished) less its duration.
type SpanJSON struct {
	Name           string           `json:"name"`
	StartMicros    int64            `json:"startMicros"`
	DurationMicros int64            `json:"durationMicros"`
	Attrs          []telemetry.Attr `json:"attrs,omitempty"`
	Children       []SpanJSON       `json:"children,omitempty"`
}

// phaseLevels is how deep a slow-query line renders the span tree: the
// request root, the calls under it (the engine's snapshot, interval, past,
// tick or monitor span, the service's decode and encode) and their phases —
// filter, gather, refine, union, pa-eval, an interval's per-snapshot spans
// with its union and area, a write's plan and apply, the monitor's
// subscriptions. A refine's row-run window spans, one level further down,
// stay at GET /debug/traces/{id}, so a line's size does not follow the
// answer's.
const phaseLevels = 3

// traceJSON renders a record with its span tree down to levels levels (0:
// no root; math.MaxInt: the whole tree).
func traceJSON(rec *tracestore.Record, levels int) TraceJSON {
	out := TraceJSON{
		Time:           rec.Time.UTC().Format(time.RFC3339Nano),
		Route:          rec.Route,
		HTTPMethod:     rec.Method,
		URL:            rec.URL,
		Status:         rec.Status,
		DurationMicros: rec.Duration.Microseconds(),
		ReplyBytes:     rec.ReplyBytes,
		Spans:          rec.Root.CountSpans(),
	}
	if rec.ID != 0 {
		out.ID = rec.ID.String()
	}
	if levels > 0 {
		root := spanJSON(rec.Root, levels)
		out.Root = &root
	}
	return out
}

func spanJSON(sp *telemetry.Span, levels int) SpanJSON {
	out := SpanJSON{
		Name:           sp.Name,
		StartMicros:    sp.Start.Microseconds(),
		DurationMicros: sp.Duration.Microseconds(),
		Attrs:          sp.Attrs,
	}
	if levels > 1 && len(sp.Children) > 0 {
		out.Children = make([]SpanJSON, len(sp.Children))
		for i, c := range sp.Children {
			out.Children[i] = spanJSON(c, levels-1)
		}
	}
	return out
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
		Traces:  make([]TraceJSON, len(recs)),
	}
	for i, rec := range recs {
		out.Traces[i] = traceJSON(rec, 0)
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
	writeJSON(w, traceJSON(rec, math.MaxInt))
}
