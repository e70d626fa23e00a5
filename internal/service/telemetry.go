package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdr/internal/stopwatch"
	"pdr/internal/telemetry"
	"pdr/internal/tracestore"
)

// TraceIDHeader is the response header carrying the request's trace ID;
// the same ID appears in the slow-query log and resolves at
// GET /debug/traces/{id} while the trace store retains the trace.
const TraceIDHeader = "X-Pdr-Trace-Id"

// handle registers pattern on the mux wrapped in the telemetry middleware:
// per-route latency histograms, per-route/status request counters, request
// tracing, and the slow-query log. The route label is the path part of the
// pattern, so cardinality stays bounded by the API surface, never by
// client input.
//
// A request's span tree is its one record, with two sinks: the trace store
// keeps it when head sampling admitted the request, and the slow-query log
// writes it when the request was slow. The tree is recorded whenever either
// sink may read it — for every request while the slow-query log is on — and
// sampling decides only what the store keeps and which responses carry
// X-Pdr-Trace-Id.
func (s *Service) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	latency := s.reg.Histogram("pdr_http_request_seconds",
		"HTTP request latency by route.", nil, telemetry.L("route", route))
	replyBytes := s.reg.Histogram("pdr_http_response_bytes",
		"HTTP response body size by route.", responseByteBuckets, telemetry.L("route", route))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sampled := s.tracer != nil && s.tracer.sample()
		var tr *telemetry.Trace
		if sampled || s.slow != nil {
			tr = telemetry.NewTrace(route)
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, tr.Root()))
		}
		if sampled {
			// The header goes out before the handler writes the status
			// line; the body of the trace fills in as the request runs.
			w.Header().Set(TraceIDHeader, tr.ID().String())
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		sw := stopwatch.Start()
		h(rec, r)
		elapsed := sw.Elapsed()
		var trec *tracestore.Record
		if tr != nil {
			// The trace's root duration is the request duration: the slow
			// log, the latency histogram, and /debug/traces/{id} all report
			// the same measurement for a recorded request.
			tr.End()
			elapsed = tr.Duration()
			trec = &tracestore.Record{
				Time: time.Now(), Route: route, Method: r.Method, URL: r.URL.String(),
				Status: rec.status, Duration: elapsed, ReplyBytes: len(rec.body), Root: tr.Root(),
			}
			if sampled {
				trec.ID = tr.ID()
				s.tracer.finish(trec)
			}
		}
		latency.Observe(elapsed.Seconds())
		replyBytes.Observe(float64(len(rec.body)))
		s.reg.Counter("pdr_http_requests_total",
			"HTTP requests by route and status.",
			telemetry.L("route", route),
			telemetry.L("status", strconv.Itoa(rec.status))).Inc()
		if s.slow != nil {
			s.slow.maybeLog(trec)
		}
		rec.release()
	})
}

// responseByteBuckets spans an error envelope (~50 B) to a paper-scale exact
// interval answer (tens of MB) in factors of four.
var responseByteBuckets = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// statusRecorder holds the handler's response — the status and the body,
// which every handler has fully buffered before writing (sendReply) —
// until the middleware has stored the request's trace, written its slow-log
// line and bumped its counters. Everything a client can look up with the
// response in hand (X-Pdr-Trace-Id at /debug/traces/{id}, the slow-query
// line, /metrics) therefore exists before the first byte leaves.
type statusRecorder struct {
	http.ResponseWriter
	status int
	body   []byte
	// pooled is the replyBufs buffer body aliases when the handler handed
	// its reply over whole (sendReply); nil when the body was copied in
	// through Write.
	pooled *[]byte
}

func (r *statusRecorder) WriteHeader(code int) { r.status = code }

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// release sends the held response and returns a handed-over buffer to its
// pool.
func (r *statusRecorder) release() {
	r.ResponseWriter.WriteHeader(r.status)
	// lint:ignore errchecklite a failed write means the client hung up and
	// there is nobody left to tell.
	r.ResponseWriter.Write(r.body)
	if r.pooled != nil {
		replyBufs.Put(r.pooled)
		r.body, r.pooled = nil, nil
	}
}

// spanKey carries the request's root span through the context.
type spanKey struct{}

// requestSpan returns the request's root span, nil when the request records
// no tree (tracing off or sampled out, and no slow-query log) or bypassed
// the middleware (a direct handler test).
func requestSpan(r *http.Request) *telemetry.Span {
	sp, _ := r.Context().Value(spanKey{}).(*telemetry.Span)
	return sp
}

// annotateQuery writes the resolved query onto the request's root span: the
// method, rho, l, at and, for an interval, until — in one append, as a
// traced request pays for each growth of the attribute list.
func annotateQuery(r *http.Request, a queryAnswer) {
	sp := requestSpan(r)
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs,
		telemetry.Attr{Key: "method", Value: a.method},
		telemetry.Attr{Key: "rho", Value: attrFloat(a.q.Rho)},
		telemetry.Attr{Key: "l", Value: attrFloat(a.q.L)},
		telemetry.Attr{Key: "at", Value: strconv.FormatInt(int64(a.q.At), 10)})
	if a.until != nil {
		sp.SetAttrInt("until", int64(*a.until))
	}
}

// attrFloat renders a span attribute's float through a stack buffer, which
// spares strconv.FormatFloat's heap scratch.
func attrFloat(v float64) string {
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}

// slowQueryLog writes one JSON line per request slower than the threshold,
// up to maxLines lines: the request's trace as GET /debug/traces/{id}
// renders it, cut at phaseLevels. Handlers run concurrently, so the writer
// is mutex-guarded.
type slowQueryLog struct {
	threshold time.Duration
	// maxLines caps the lines ever written (0 = unbounded); beyond it,
	// slow requests still count on the slow-query counter but their lines
	// are dropped and counted on dropped — a long-running server cannot
	// grow the log file without limit.
	maxLines int64
	count    *telemetry.Counter
	dropped  *telemetry.Counter
	written  atomic.Int64
	mu       sync.Mutex
	w        io.Writer // guarded by mu
}

func (l *slowQueryLog) maybeLog(rec *tracestore.Record) {
	if rec.Duration < l.threshold {
		return
	}
	l.count.Inc()
	if l.maxLines > 0 && l.written.Add(1) > l.maxLines {
		l.dropped.Inc()
		return
	}
	buf, err := json.Marshal(traceJSON(rec, phaseLevels))
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	// lint:ignore errchecklite diagnostics sink: a failed slow-log write
	// must never fail the request it describes.
	l.w.Write(buf)
}

// handleMetrics serves GET /metrics in the Prometheus text format. It reads
// only atomic instruments, so it never takes the engine lock — a slow
// scraper cannot stall query traffic.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.reg.WriteText(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "metrics exposition: %v", err)
		return
	}
	w.Header().Set("Content-Type", telemetry.TextContentType)
	// lint:ignore errchecklite the exposition is fully buffered; a failed
	// write means the scraper hung up and there is nobody left to tell.
	w.Write(buf.Bytes())
}
