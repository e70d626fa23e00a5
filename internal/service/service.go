// Package service exposes the PDR engine over HTTP with a JSON API — the
// deployment surface a location-based-services backend would integrate:
//
//	POST   /v1/load       bulk-load initial object states
//	POST   /v1/updates    advance the clock and apply location updates
//	                      (returns standing-query change events)
//	POST   /v1/apply      apply insert/delete updates between ticks
//	                      (the clock does not move)
//	GET    /v1/query      answer a snapshot or interval PDR query
//	POST   /v1/watch      register a standing (continuous) PDR query
//	DELETE /v1/watch/{id} remove a standing query
//	GET    /v1/past       exact PDR query at a past timestamp (history)
//	GET    /v1/contours   extract iso-density contour lines (PA surfaces)
//	GET    /v1/stats      server and buffer-pool statistics
//	GET    /healthz       liveness
//
// The three write routes read their body whole, at most 64 MiB of it (413
// beyond), before decoding: /v1/updates and /v1/apply through
// wire.DecodeUpdates with encoding/json as the fallback on the same bytes
// (body.go), so a malformed body's 400 names the byte or the record. The
// engine applies the valid prefix of a write and stops at the first record it
// rejects; the 409 then reads {"error": ..., "applied": n}.
//
// Query handlers share the service's read lock and run concurrently (fanning
// work out to the engine's worker pool); load/update/watch handlers take the
// write lock. The service-level RWMutex keeps parse-time clock reads coherent
// with query execution and guards the monitor; the engine (internal/core)
// has its own per-partition locks, which is what lets /v1/apply run under the
// read lock. A query's answer is private to its request, so /v1/query and
// /v1/past drop the lock when the engine returns and encode the reply
// (reply.go) without it: a tick never waits out the formatting of a reply.
package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdr/internal/core"
	"pdr/internal/monitor"
	"pdr/internal/motion"
	"pdr/internal/telemetry"
	"pdr/internal/tracestore"
	"pdr/internal/wire"
)

// DefaultTraceBuffer is the trace-store recency-ring capacity used when
// WithTracing is not given; the slowest-kept reservoir is sized at a
// quarter of the ring.
const DefaultTraceBuffer = 256

// Service wraps a PDR engine with an HTTP API.
type Service struct {
	// mu is the outermost lock in the process: every engine and monitor
	// lock nests inside it, never the reverse.
	mu sync.RWMutex // pdr:lockrank service 10
	// srv is the engine; guarded by mu (enforced by pdrvet's locked
	// analyzer): queries and applies hold the read lock, ticks and loads the
	// write lock.
	srv *core.Server
	// mon re-evaluates standing queries; guarded by mu (registration and
	// advancement mutate it, so those handlers take the write lock).
	mon *monitor.Monitor
	mux *http.ServeMux
	// reg and met are atomic-based telemetry; safe without mu.
	reg  *telemetry.Registry
	met  *core.Metrics
	slow *slowQueryLog // nil unless WithSlowQueryLog was given
	// tracer samples and stores request traces; nil when tracing is
	// disabled (trace buffer 0). Internally synchronized — handlers use it
	// without mu.
	tracer *tracer
	// rts is the lazily-refreshed runtime sample behind the pdr_go_*
	// gauges and the /v1/stats runtime fields; internally synchronized.
	rts   *telemetry.RuntimeStats
	start time.Time // construction instant, for uptime

	traceSample float64
	traceBuffer int
}

// Option customizes a Service at construction.
type Option func(*Service)

// WithRegistry exposes the service's metrics on an existing registry
// (e.g. one shared with other subsystems of the process).
func WithRegistry(reg *telemetry.Registry) Option {
	return func(s *Service) { s.reg = reg }
}

// WithSlowQueryLog enables the slow-query log: every request slower than
// threshold is written to w as one structured JSON line (see
// docs/OBSERVABILITY.md for the schema).
func WithSlowQueryLog(threshold time.Duration, w io.Writer) Option {
	return func(s *Service) {
		s.slow = &slowQueryLog{threshold: threshold, w: w}
	}
}

// WithSlowQueryCap bounds the slow-query log at maxLines written lines;
// beyond the cap, lines are dropped (and counted on
// pdr_http_slow_log_dropped_total) so a long-running server can never
// grow the log without limit. 0 means unbounded.
func WithSlowQueryCap(maxLines int64) Option {
	return func(s *Service) {
		if s.slow != nil {
			s.slow.maxLines = maxLines
		}
	}
}

// WithTracing configures request tracing: sample is the head-sampling
// probability in [0, 1] (1 = trace everything, the default; 0 = trace
// nothing), buffer is the trace-store recency-ring capacity (0 disables
// tracing entirely and removes the per-request trace machinery). See
// docs/OBSERVABILITY.md "Tracing".
func WithTracing(sample float64, buffer int) Option {
	return func(s *Service) {
		s.traceSample = sample
		s.traceBuffer = buffer
	}
}

// New creates a service over a fresh engine.
func New(cfg core.Config, opts ...Option) (*Service, error) {
	srv, err := core.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithEngine(srv, opts...)
}

// NewWithEngine creates a service over an existing engine. The service
// attaches its metrics bundle and substrate telemetry to the engine, so call
// it before the engine serves traffic.
func NewWithEngine(srv *core.Server, opts ...Option) (*Service, error) {
	s := &Service{
		srv: srv, mon: monitor.New(srv), mux: http.NewServeMux(),
		start: time.Now(), traceSample: 1, traceBuffer: DefaultTraceBuffer,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.met = core.NewMetrics(s.reg)
	srv.SetMetrics(s.met)
	srv.AttachTelemetry(s.reg)
	s.mon.SetMetrics(monitor.NewMetrics(s.reg))
	if s.slow != nil {
		s.slow.count = s.reg.Counter("pdr_http_slow_queries_total",
			"Requests that exceeded the slow-query threshold.")
		s.slow.dropped = s.reg.Counter("pdr_http_slow_log_dropped_total",
			"Slow-query log lines dropped by the entry cap.")
	}
	if s.traceBuffer > 0 {
		store := tracestore.New(s.traceBuffer, (s.traceBuffer+3)/4)
		store.SetMetrics(tracestore.NewMetrics(s.reg))
		s.tracer = &tracer{
			store: store,
			rate:  s.traceSample,
			sampled: s.reg.Counter("pdr_trace_sampled_total",
				"Requests traced and stored in the trace store."),
			dropped: s.reg.Counter("pdr_trace_dropped_total",
				"Requests not traced (head sampling decided against)."),
		}
	}
	s.rts = telemetry.NewRuntimeStats(s.reg)
	s.reg.GaugeFunc("pdr_process_uptime_seconds",
		"Seconds since the service was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.registerWatchRoutes()
	s.handle("POST /v1/load", s.handleLoad)
	s.handle("POST /v1/updates", s.handleUpdates)
	s.handle("POST /v1/apply", s.handleApply)
	s.handle("GET /v1/query", s.handleQuery)
	s.handle("GET /v1/contours", s.handleContours)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		// lint:ignore errchecklite liveness probe: a failed write to a
		// hung-up prober has no one left to report to.
		fmt.Fprintln(w, "ok")
	})
	// The scrape path is registered raw: instrumenting it would make every
	// scrape mutate the very series it is reading.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The trace-inspection paths are registered raw too: reading traces
	// must never generate traces, or an idle debugging session fills the
	// very ring it is inspecting.
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return s, nil
}

// Registry exposes the service's telemetry registry (for embedding the
// exposition elsewhere, e.g. a debug listener).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Engine returns the wrapped PDR engine for offline pre-loading; once the
// service is receiving HTTP traffic, all access must go through the API.
//
// lint:ignore locked offline escape hatch: documented as pre-traffic only,
// so no handler can race it.
func (s *Service) Engine() *core.Server { return s.srv }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// partialBody is the 409 of a write the engine stopped in: the first Applied
// records of the request took effect, the next one was rejected with Error.
type partialBody struct {
	Error   string `json:"error"`
	Applied int    `json:"applied"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONStatus(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// LoadRequest is the body of POST /v1/load.
type LoadRequest struct {
	States []wire.Record `json:"states"`
}

// LoadResponse reports the load outcome.
type LoadResponse struct {
	Loaded int         `json:"loaded"`
	Now    motion.Tick `json:"now"`
}

func (s *Service) handleLoad(w http.ResponseWriter, r *http.Request) {
	pb, err := readBody(w, r)
	if err != nil {
		bodyReadError(w, err)
		return
	}
	var req LoadRequest
	err = decodeJSON(*pb, &req)
	bodyBufs.Put(pb)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	states := make([]motion.State, len(req.States))
	for i, rec := range req.States {
		states[i] = rec.State()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.srv.Load(states); err != nil {
		httpError(w, http.StatusConflict, "load: %v", err)
		return
	}
	writeJSON(w, LoadResponse{Loaded: len(states), Now: s.srv.Now()})
}

// UpdatesRequest is the body of POST /v1/updates: the clock advances to Now
// and the updates are applied in order.
type UpdatesRequest struct {
	Now     motion.Tick   `json:"now"`
	Updates []wire.Record `json:"updates"`
}

// UpdatesResponse reports the tick outcome, including any change events
// from registered standing queries.
type UpdatesResponse struct {
	Applied int         `json:"applied"`
	Now     motion.Tick `json:"now"`
	Objects int         `json:"objects"`
	Events  []EventJSON `json:"events,omitempty"`
}

func (s *Service) handleUpdates(w http.ResponseWriter, r *http.Request) {
	now, ups, ok := decodeUpdates(w, r, func(body []byte) (motion.Tick, []wire.Record, error) {
		var req UpdatesRequest
		err := decodeJSON(body, &req)
		return req.Now, req.Updates, err
	})
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	events, err := s.mon.AdvanceTraced(now, ups, requestSpan(r))
	if err != nil {
		// The engine stops at the first record it rejects: the valid prefix
		// before it is applied and stays applied (core's package comment).
		applied := 0
		var partial *core.PartialError
		if errors.As(err, &partial) {
			applied = partial.Applied
		}
		writeJSONStatus(w, http.StatusConflict, partialBody{Error: fmt.Sprintf("tick: %v", err), Applied: applied})
		return
	}
	writeJSON(w, UpdatesResponse{
		Applied: len(ups), Now: s.srv.Now(), Objects: s.srv.NumObjects(),
		Events: eventsJSON(events),
	})
}

// ApplyRequest is the body of POST /v1/apply: between-tick movement updates
// applied at the current clock. Unlike /v1/updates, the clock does not move
// and standing queries are not re-evaluated.
type ApplyRequest struct {
	Updates []wire.Record `json:"updates"`
}

// ApplyResponse reports the apply outcome.
type ApplyResponse struct {
	Applied int         `json:"applied"`
	Now     motion.Tick `json:"now"`
	Objects int         `json:"objects"`
}

func (s *Service) handleApply(w http.ResponseWriter, r *http.Request) {
	_, ups, ok := decodeUpdates(w, r, func(body []byte) (motion.Tick, []wire.Record, error) {
		var req ApplyRequest
		err := decodeJSON(body, &req)
		return 0, req.Updates, err
	})
	if !ok {
		return
	}
	// Applies bypass the monitor (the clock does not move, so no standing
	// query comes due) and take only the read side of the service lock: the
	// engine serializes its own writes, and applies to different partitions
	// proceed in parallel — the contention regime bench/'s mixed-rw workload
	// measures.
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, u := range ups {
		if err := s.srv.Apply(u); err != nil {
			writeJSONStatus(w, http.StatusConflict, partialBody{Error: fmt.Sprintf("apply %d: %v", i, err), Applied: i})
			return
		}
	}
	writeJSON(w, ApplyResponse{Applied: len(ups), Now: s.srv.Now(), Objects: s.srv.NumObjects()})
}

// RectJSON is one dense rectangle of a query answer.
type RectJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// QueryResponse is the body returned by GET /v1/query and GET /v1/past: the
// documented shape, and what clients decode into. The handlers never build
// one — appendQueryReply writes its encoding straight from the engine's
// result — so a field added here must be added there, in the same position
// (TestQueryReplyMatchesEncodingJSON compares the two byte for byte).
type QueryResponse struct {
	Method      string        `json:"method"`
	At          motion.Tick   `json:"at"`
	Until       *motion.Tick  `json:"until,omitempty"`
	Rho         float64       `json:"rho"`
	L           float64       `json:"l"`
	Rects       []RectJSON    `json:"rects"`
	Area        float64       `json:"area"`
	Rings       [][]PointJSON `json:"rings,omitempty"`
	CPUMicros   int64         `json:"cpuMicros"`
	WallMicros  int64         `json:"wallMicros"`
	IOs         int64         `json:"ios"`
	TotalMicros int64         `json:"totalMicros"`
	// Cached reports the answer came from the result cache (for an interval,
	// every per-timestamp snapshot did); CachedCPUMicros is the evaluation
	// cost the cache saved.
	Cached          bool  `json:"cached,omitempty"`
	CachedCPUMicros int64 `json:"cachedCpuMicros,omitempty"`
}

// PointJSON is one outline vertex.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// handleQuery answers GET /v1/query with parameters:
//
//	method   fr | pa | dh-opt | dh-pess | bf        (default fr)
//	rho      absolute density threshold, or
//	varrho   relative threshold (paper's 1..5)
//	l        neighborhood edge (required)
//	at       now | now+K | absolute tick            (default now)
//	until    optional: interval query end (same forms as at)
//	outline  1 to include rectilinear boundary rings
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	method, err := parseMethod(qp.Get("method"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	l, err := strconv.ParseFloat(qp.Get("l"), 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad l %q", qp.Get("l"))
		return
	}
	ans, code, err := s.evalQuery(r, qp, method, l)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	annotateQuery(r, ans)
	writeQueryReply(w, r, ans, qp.Get("outline") == "1")
}

// evalQuery resolves a query's clock-relative parameters and runs it, all
// under one hold of the service's read lock so the clock it parsed against
// is the clock it ran at — and not a moment longer: the answer is private to
// the request, so the reply is encoded after the lock is gone. A failure
// comes back with the HTTP status to report it under.
func (s *Service) evalQuery(r *http.Request, qp url.Values, method core.Method, l float64) (queryAnswer, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.srv.Now()
	horizon := s.srv.Horizon()

	rho, err := s.parseRhoLocked(qp)
	if err != nil {
		return queryAnswer{}, http.StatusBadRequest, err
	}
	at, err := parseTick(qp.Get("at"), now, horizon)
	if err != nil {
		return queryAnswer{}, http.StatusBadRequest, err
	}
	ans := queryAnswer{q: core.Query{Rho: rho, L: l, At: at}}
	if u := qp.Get("until"); u != "" {
		end, err := parseTick(u, now, horizon)
		if err != nil {
			return queryAnswer{}, http.StatusBadRequest, err
		}
		ans.until = &end
		ans.res, err = s.srv.IntervalTraced(ans.q, end, method, requestSpan(r))
	} else {
		ans.res, err = s.srv.SnapshotTraced(ans.q, method, requestSpan(r))
	}
	if err != nil {
		return queryAnswer{}, http.StatusUnprocessableEntity, err
	}
	ans.method = ans.res.Method.String()
	return ans, http.StatusOK, nil
}

// ContourResponse is the body of GET /v1/contours.
type ContourResponse struct {
	Level    float64      `json:"level"`
	At       motion.Tick  `json:"at"`
	Segments [][4]float64 `json:"segments"` // x1, y1, x2, y2
}

func (s *Service) handleContours(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	level, err := strconv.ParseFloat(qp.Get("level"), 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad level %q", qp.Get("level"))
		return
	}
	res := 96
	if v := qp.Get("res"); v != "" {
		if res, err = strconv.Atoi(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad res %q", v)
			return
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	at, err := parseTick(qp.Get("at"), s.srv.Now(), s.srv.Horizon())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	segs, err := s.srv.Contours(at, level, res)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	out := ContourResponse{Level: level, At: at, Segments: make([][4]float64, len(segs))}
	for i, sg := range segs {
		out.Segments[i] = [4]float64{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y}
	}
	writeJSON(w, out)
}

// StatsResponse is the body of GET /v1/stats. The telemetry-backed fields
// (QueriesServed, Subscriptions, PoolHitRatio) read the same instruments
// /metrics exposes, so the two surfaces always agree.
type StatsResponse struct {
	Now            motion.Tick      `json:"now"`
	Objects        int              `json:"objects"`
	HistogramBytes int              `json:"histogramBytes"`
	SurfaceBytes   int              `json:"surfaceBytes"`
	IndexPages     int              `json:"indexPages"`
	PoolReads      int64            `json:"poolReads"`
	PoolWrites     int64            `json:"poolWrites"`
	PoolHits       int64            `json:"poolHits"`
	PoolHitRatio   float64          `json:"poolHitRatio"`
	Subscriptions  int              `json:"subscriptions"`
	QueriesServed  map[string]int64 `json:"queriesServed"`
	UptimeHorizon  motion.Tick      `json:"horizon"`
	// Result-cache counters (all zero when Config.CacheBytes is 0); the
	// same instruments /metrics exposes as pdr_cache_*.
	CacheHits          int64   `json:"cacheHits"`
	CacheMisses        int64   `json:"cacheMisses"`
	CacheEvictions     int64   `json:"cacheEvictions"`
	SingleflightShared int64   `json:"singleflightShared"`
	CacheBytes         int64   `json:"cacheBytes"`
	CacheEntries       int64   `json:"cacheEntries"`
	CacheHitRatio      float64 `json:"cacheHitRatio"`
	// Process runtime: the same sample behind /metrics' uptime gauge and
	// pdr_go_goroutines.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Goroutines    int     `json:"goroutines"`
	// Trace sampling counters: the same instruments /metrics exposes as
	// pdr_trace_sampled_total / pdr_trace_dropped_total (zero when tracing
	// is disabled).
	TraceSampled int64 `json:"traceSampled"`
	TraceDropped int64 `json:"traceDropped"`
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.srv.PoolStats()
	cst := s.srv.CacheStats()
	var traceSampled, traceDropped int64
	if s.tracer != nil {
		traceSampled = s.tracer.sampled.Value()
		traceDropped = s.tracer.dropped.Value()
	}
	writeJSON(w, StatsResponse{
		Now:                s.srv.Now(),
		Objects:            s.srv.NumObjects(),
		HistogramBytes:     s.srv.HistogramBytes(),
		SurfaceBytes:       s.srv.SurfaceBytes(),
		IndexPages:         s.srv.PoolPages(),
		PoolReads:          st.Reads,
		PoolWrites:         st.Writes,
		PoolHits:           st.Hits,
		PoolHitRatio:       st.HitRatio(),
		Subscriptions:      s.mon.NumSubscriptions(),
		QueriesServed:      s.met.QueriesServed(),
		UptimeHorizon:      s.srv.Horizon(),
		CacheHits:          cst.Hits,
		CacheMisses:        cst.Misses,
		CacheEvictions:     cst.Evictions,
		SingleflightShared: cst.Shared,
		CacheBytes:         cst.Bytes,
		CacheEntries:       cst.Entries,
		CacheHitRatio:      cst.HitRatio(),
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Goroutines:         s.rts.Goroutines(),
		TraceSampled:       traceSampled,
		TraceDropped:       traceDropped,
	})
}

// parseRhoLocked resolves rho= (absolute) or varrho= (relative to the live
// count) query parameters. The Locked suffix is the pdrvet convention: the
// caller must hold s.mu.
func (s *Service) parseRhoLocked(qp url.Values) (float64, error) {
	if v := qp.Get("rho"); v != "" {
		rho, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad rho %q", v)
		}
		return rho, nil
	}
	if v := qp.Get("varrho"); v != "" {
		varrho, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad varrho %q", v)
		}
		area := s.srv.Config().Area
		return float64(s.srv.NumObjects()) * varrho / area.Area(), nil
	}
	return 0, fmt.Errorf("one of rho or varrho is required")
}

// parseTick parses a query timestamp ("now", "now+K", or an absolute tick)
// and validates it against the engine's live window [now, now+horizon], so
// clients get a clear 400 naming the window instead of an opaque engine
// failure. Past forms are redirected to /v1/past.
func parseTick(v string, now, horizon motion.Tick) (motion.Tick, error) {
	switch {
	case v == "" || v == "now":
		return now, nil
	case strings.HasPrefix(v, "now+"):
		k, err := strconv.Atoi(v[len("now+"):])
		if err != nil || k < 0 {
			return 0, fmt.Errorf("bad timestamp %q", v)
		}
		if motion.Tick(k) > horizon {
			return 0, fmt.Errorf("timestamp %q is beyond the maintained horizon: the engine answers [now, now+%d]", v, horizon)
		}
		return now + motion.Tick(k), nil
	case strings.HasPrefix(v, "now-"):
		return 0, fmt.Errorf("timestamp %q is in the past; use /v1/past for historical queries", v)
	default:
		k, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q", v)
		}
		t := motion.Tick(k)
		if t < now {
			return 0, fmt.Errorf("timestamp %d precedes now=%d; use /v1/past for historical queries", t, now)
		}
		if t > now+horizon {
			return 0, fmt.Errorf("timestamp %d is beyond the maintained horizon: the engine answers [%d, %d]", t, now, now+horizon)
		}
		return t, nil
	}
}

// parsePastTick parses the timestamp of a /v1/past query: "now-K" or an
// absolute tick strictly before now (PastSnapshot covers only the past; the
// live window belongs to /v1/query).
func parsePastTick(v string, now motion.Tick) (motion.Tick, error) {
	var t motion.Tick
	switch {
	case strings.HasPrefix(v, "now-"):
		k, err := strconv.Atoi(v[len("now-"):])
		if err != nil || k < 0 {
			return 0, fmt.Errorf("bad timestamp %q", v)
		}
		t = now - motion.Tick(k)
	default:
		k, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q (want an absolute tick or now-K)", v)
		}
		t = motion.Tick(k)
	}
	if t < 0 {
		return 0, fmt.Errorf("timestamp %q is before the start of history: past queries cover [0, %d)", v, now)
	}
	if t >= now {
		return 0, fmt.Errorf("timestamp %d is not in the past (now=%d); use /v1/query for the live window", t, now)
	}
	return t, nil
}

func parseMethod(v string) (core.Method, error) {
	switch strings.ToLower(v) {
	case "", "fr":
		return core.FR, nil
	case "pa":
		return core.PA, nil
	case "dh-opt":
		return core.DHOptimistic, nil
	case "dh-pess":
		return core.DHPessimistic, nil
	case "bf":
		return core.BruteForce, nil
	default:
		return 0, fmt.Errorf("unknown method %q", v)
	}
}

// ListenAndServe runs the service on addr until the listener fails. The
// full timeout set is configured so a slow or stalled client can never pin
// a handler goroutine (and with it s.mu) indefinitely: WriteTimeout bounds
// the whole response, sized for exact FR interval queries which legitimately
// run tens of seconds at paper scale.
func (s *Service) ListenAndServe(addr string) error {
	server := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	return server.ListenAndServe()
}
