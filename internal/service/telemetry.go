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

	"pdr/internal/motion"
	"pdr/internal/stopwatch"
	"pdr/internal/telemetry"
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
		detail := &queryDetail{}
		var tr *telemetry.Trace
		if s.tracer != nil {
			tr = s.tracer.maybeStart(route)
		}
		if tr != nil {
			// The header goes out before the handler writes the status
			// line; the body of the trace fills in as the request runs.
			detail.span = tr.Root()
			w.Header().Set(TraceIDHeader, tr.ID().String())
		}
		r = r.WithContext(context.WithValue(r.Context(), detailKey{}, detail))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		sw := stopwatch.Start()
		h(rec, r)
		var elapsed time.Duration
		var traceID telemetry.TraceID
		if tr != nil {
			// The trace's root duration is the request duration: the slow
			// log, the latency histogram, and /debug/traces/{id} all report
			// the same measurement for a traced request.
			tr.End()
			elapsed = tr.Duration()
			traceID = tr.ID()
			s.tracer.finish(tr, route, r, rec.status, elapsed)
		} else {
			elapsed = sw.Elapsed()
		}
		latency.Observe(elapsed.Seconds())
		replyBytes.Observe(float64(len(rec.body)))
		s.reg.Counter("pdr_http_requests_total",
			"HTTP requests by route and status.",
			telemetry.L("route", route),
			telemetry.L("status", strconv.Itoa(rec.status))).Inc()
		if s.slow != nil {
			s.slow.maybeLog(route, r, rec.status, len(rec.body), elapsed, detail, traceID)
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

// detailKey carries the per-request queryDetail through the context.
type detailKey struct{}

// queryDetail is filled in by query handlers so the slow-query log can
// report engine-level context (method, parameters, phase breakdown) beyond
// what the middleware sees.
type queryDetail struct {
	set    bool
	method string
	rho, l float64
	at     motion.Tick
	until  *motion.Tick
	ios    int64
	cpu    time.Duration
	wall   time.Duration
	cached bool
	phases []telemetry.PhaseSpan
	// encode is the time writeQueryReply spent building the reply body;
	// decode the time decodeUpdates spent turning a write's body into updates.
	encode time.Duration
	decode time.Duration
	// span is the request's root span when the request is traced; handlers
	// fetch it via requestSpan to hang engine subtrees off it. Nil when
	// tracing is off or the request was sampled out.
	span *telemetry.Span
}

// requestDetail returns the request's carrier, nil for a request that
// bypassed the middleware (e.g. a direct handler test).
func requestDetail(r *http.Request) *queryDetail {
	d, _ := r.Context().Value(detailKey{}).(*queryDetail)
	return d
}

// requestSpan returns the request's root span, nil for untraced requests
// (tracing disabled, sampled out, or no carrier).
func requestSpan(r *http.Request) *telemetry.Span {
	if d := requestDetail(r); d != nil {
		return d.span
	}
	return nil
}

// annotateQuery records engine result detail on the request's carrier (a
// no-op without one).
func annotateQuery(r *http.Request, a queryAnswer) {
	d := requestDetail(r)
	if d == nil {
		return
	}
	d.set = true
	d.method = a.method
	d.rho, d.l, d.at = a.q.Rho, a.q.L, a.q.At
	d.until = a.until
	d.ios = a.res.IOs
	d.cpu = a.res.CPU
	d.wall = a.res.Wall
	d.cached = a.res.Cached
	d.phases = a.res.Phases
}

// slowQueryLog writes one structured JSON line per request slower than the
// threshold, up to maxLines lines. Handlers run concurrently, so the
// writer is mutex-guarded.
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

// slowQueryLine is the JSON schema of one slow-query log record.
type slowQueryLine struct {
	Time           string `json:"time"`
	Route          string `json:"route"`
	HTTPMethod     string `json:"httpMethod"`
	URL            string `json:"url"`
	Status         int    `json:"status"`
	DurationMicros int64  `json:"durationMicros"`
	// ReplyBytes is the response body size; EncodeMicros, present on query
	// routes, is the part of the duration spent building that body — the
	// service's own share of a slow exact read, beside the engine's phases.
	// DecodeMicros, present on /v1/updates and /v1/apply, is the part spent
	// decoding the request body before the engine was called.
	ReplyBytes   int   `json:"replyBytes"`
	EncodeMicros int64 `json:"encodeMicros,omitempty"`
	DecodeMicros int64 `json:"decodeMicros,omitempty"`
	// TraceID resolves at GET /debug/traces/{id} while the trace store
	// retains the trace; absent for untraced requests.
	TraceID string           `json:"traceId,omitempty"`
	Query   *slowQueryDetail `json:"query,omitempty"`
}

type slowQueryDetail struct {
	Method     string          `json:"method"`
	Rho        float64         `json:"rho"`
	L          float64         `json:"l"`
	At         motion.Tick     `json:"at"`
	Until      *motion.Tick    `json:"until,omitempty"`
	IOs        int64           `json:"ios"`
	CPUMicros  int64           `json:"cpuMicros"`
	WallMicros int64           `json:"wallMicros"`
	Cached     bool            `json:"cached,omitempty"`
	Phases     []phaseSpanJSON `json:"phases,omitempty"`
}

type phaseSpanJSON struct {
	Phase  string `json:"phase"`
	Micros int64  `json:"micros"`
}

func (l *slowQueryLog) maybeLog(route string, r *http.Request, status, replyBytes int, elapsed time.Duration, d *queryDetail, traceID telemetry.TraceID) {
	if elapsed < l.threshold {
		return
	}
	l.count.Inc()
	if l.maxLines > 0 && l.written.Add(1) > l.maxLines {
		l.dropped.Inc()
		return
	}
	line := slowQueryLine{
		Time:           time.Now().UTC().Format(time.RFC3339Nano),
		Route:          route,
		HTTPMethod:     r.Method,
		URL:            r.URL.String(),
		Status:         status,
		DurationMicros: elapsed.Microseconds(),
		ReplyBytes:     replyBytes,
	}
	if traceID != 0 {
		line.TraceID = traceID.String()
	}
	if d != nil {
		line.DecodeMicros = d.decode.Microseconds()
	}
	if d != nil && d.set {
		line.EncodeMicros = d.encode.Microseconds()
		q := &slowQueryDetail{
			Method: d.method, Rho: d.rho, L: d.l, At: d.at, Until: d.until,
			IOs: d.ios, CPUMicros: d.cpu.Microseconds(),
			WallMicros: d.wall.Microseconds(), Cached: d.cached,
		}
		for _, p := range d.phases {
			q.Phases = append(q.Phases, phaseSpanJSON{Phase: p.Name, Micros: p.Duration.Microseconds()})
		}
		line.Query = q
	}
	buf, err := json.Marshal(line)
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
