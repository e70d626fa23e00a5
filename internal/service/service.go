// Package service exposes the PDR engine over HTTP with a JSON API — the
// deployment surface a location-based-services backend would integrate:
//
//	POST   /v1/updates    advance the clock and apply location updates
//	POST   /v1/apply      apply insert/delete updates between ticks
//	                      (the clock does not move)
//	GET    /v1/query      answer a snapshot or interval PDR query by FR
//	                      (exact) or PA (approximate)
//	GET    /v1/stats      server and buffer-pool statistics
//	GET    /healthz       liveness
//
// The DH baselines and the brute-force sweep are library methods
// (core.Server.Snapshot), not served, and outlines are drawn by pdrquery
// -svg; /v1/query refuses both with a 400. Initial object states are loaded
// before serving, through Engine (pdrserve -data).
//
// The two write routes read their body whole, at most 64 MiB of it (413
// beyond), before decoding: /v1/updates and /v1/apply through
// wire.DecodeUpdates with encoding/json as the fallback on the same bytes
// (body.go), so a malformed body's 400 names the byte or the record. The
// engine applies the valid prefix of a write and stops at the first record it
// rejects; the 409 then reads {"error": ..., "applied": n}. Every write
// request is one engine write, /v1/apply included: a query sees all of its
// admitted prefix or none of it.
//
// One lock per request. The service holds no lock on the engine: every
// handler calls the engine (internal/core), which takes its own lock for the
// call, so queries run concurrently with each other and a write waits out
// only the engine calls in flight, not the requests around them.
// Clock-relative timestamps (now, now+K) are resolved against the engine's
// clock and re-resolved when a tick moved it under a failed run (atClock),
// so a query never fails because a tick landed between the two. A query's
// answer is read-only, and no write touches it once handed out: the reply is
// encoded (reply.go) after the engine lock is released, so a tick never
// waits out its formatting.
package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pdr/internal/core"
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
	// srv is the engine; it locks itself, so the handlers call it without a
	// lock of their own.
	srv *core.Server
	mux *http.ServeMux
	// reg and met are atomic-based telemetry.
	reg  *telemetry.Registry
	met  *core.Metrics
	slow *slowQueryLog // nil unless WithSlowQueryLog was given
	// tracer samples and stores request traces; nil when tracing is
	// disabled (trace buffer 0). Internally synchronized.
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

// WithSlowQueryLog enables the slow-query log: every request slower than
// threshold is written to w as one JSON line, its trace record with the
// span tree cut at the engine's phases (docs/OBSERVABILITY.md), up to
// maxLines lines. While it is on, every request records its span tree,
// whether or not head sampling admits it to the trace store. Beyond the
// cap, lines are dropped (and counted on pdr_http_slow_log_dropped_total)
// so a long-running server can never grow the log without limit; 0 means
// unbounded.
func WithSlowQueryLog(threshold time.Duration, maxLines int64, w io.Writer) Option {
	return func(s *Service) {
		s.slow = &slowQueryLog{threshold: threshold, maxLines: maxLines, w: w}
	}
}

// WithTracing configures request tracing: sample is the head-sampling
// probability in [0, 1] (1 = store every trace, the default; 0 = none),
// buffer is the trace-store recency-ring capacity (0 disables the store
// and the trace API). A request sampling turns away records no spans
// unless the slow-query log is on. See docs/OBSERVABILITY.md "Tracing".
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
// attaches its metrics bundle to the engine without synchronization, so call
// it while no query runs there. The substrate series (buffer pool, result
// cache, worker pool) are read from the engine at scrape time and report
// everything since the engine was built.
func NewWithEngine(srv *core.Server, opts ...Option) (*Service, error) {
	s := &Service{
		srv: srv, mux: http.NewServeMux(), reg: telemetry.NewRegistry(),
		start: time.Now(), traceSample: 1, traceBuffer: DefaultTraceBuffer,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.met = core.NewMetrics(s.reg)
	srv.SetMetrics(s.met)
	srv.AttachTelemetry(s.reg)
	if s.slow != nil {
		s.slow.count = s.reg.Counter("pdr_http_slow_queries_total",
			"Requests that exceeded the slow-query threshold.")
		s.slow.dropped = s.reg.Counter("pdr_http_slow_log_dropped_total",
			"Slow-query log lines dropped by the entry cap.")
	}
	if s.traceBuffer > 0 {
		store := tracestore.New(s.traceBuffer, (s.traceBuffer+3)/4)
		store.RegisterMetrics(s.reg)
		s.tracer = &tracer{
			store: store,
			rate:  s.traceSample,
			sampled: s.reg.Counter("pdr_trace_sampled_total",
				"Requests traced and stored in the trace store."),
			dropped: s.reg.Counter("pdr_trace_dropped_total",
				"Requests head sampling kept out of the trace store."),
		}
	}
	s.rts = telemetry.NewRuntimeStats(s.reg)
	s.reg.GaugeFunc("pdr_process_uptime_seconds",
		"Seconds since the service was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.handle("POST /v1/updates", s.handleUpdates)
	s.handle("POST /v1/apply", s.handleApply)
	s.handle("GET /v1/query", s.handleQuery)
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

// Engine returns the wrapped PDR engine for offline pre-loading: pdrserve
// -data loads the initial states through its Load, and no route does. Once
// the service is receiving HTTP traffic, all access must go through the API.
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

// writePartial answers a write the engine stopped in. The engine stops at
// the first record it rejects: the valid prefix before it is applied and
// stays applied (core's package comment), and its length is the
// *core.PartialError's Applied.
func writePartial(w http.ResponseWriter, op string, err error) {
	writeJSONStatus(w, http.StatusConflict, partialBody{Error: fmt.Sprintf("%s: %v", op, err), Applied: appliedOf(err)})
}

// appliedOf returns the length of the valid prefix a failed write applied.
func appliedOf(err error) int {
	var partial *core.PartialError
	if errors.As(err, &partial) {
		return partial.Applied
	}
	return 0
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONStatus(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// UpdatesRequest is the body of POST /v1/updates: the clock advances to Now
// and the updates are applied in order.
type UpdatesRequest struct {
	Now     motion.Tick   `json:"now"`
	Updates []wire.Record `json:"updates"`
}

// UpdatesResponse reports the tick outcome.
type UpdatesResponse struct {
	Applied int         `json:"applied"`
	Now     motion.Tick `json:"now"`
	Objects int         `json:"objects"`
}

// handleUpdates makes the request one engine tick (core.Server.TickTraced):
// the clock moves to the body's now and its records are applied under the
// engine's write lock. The tick is the root's "tick" span, with the engine's
// plan and apply under it.
func (s *Service) handleUpdates(w http.ResponseWriter, r *http.Request) {
	now, ups, ok := decodeUpdates(w, r, func(body []byte) (motion.Tick, []wire.Record, error) {
		var req UpdatesRequest
		err := decodeJSON(body, &req)
		return req.Now, req.Updates, err
	})
	if !ok {
		return
	}
	tsp := requestSpan(r).Child("tick")
	tsp.SetAttrInt("updates", int64(len(ups)))
	err := s.srv.TickTraced(now, ups, tsp)
	tsp.End()
	if err != nil {
		writePartial(w, "tick", err)
		return
	}
	writeJSON(w, UpdatesResponse{Applied: len(ups), Now: now, Objects: s.srv.NumObjects()})
}

// ApplyRequest is the body of POST /v1/apply: between-tick movement updates
// applied at the current clock. Unlike /v1/updates, the clock does not move.
type ApplyRequest struct {
	Updates []wire.Record `json:"updates"`
}

// ApplyResponse reports the apply outcome.
type ApplyResponse struct {
	Applied int         `json:"applied"`
	Now     motion.Tick `json:"now"`
	Objects int         `json:"objects"`
}

// handleApply makes the request's records one engine write
// (core.Server.ApplyBatchTraced), so a query sees all of its admitted prefix
// or none of it. It takes the engine's write lock alone: the contention
// regime bench/'s mixed-rw workload measures. The write is the root's
// "batch" span, with the engine's plan and apply under it, as a tick's are
// under "tick".
func (s *Service) handleApply(w http.ResponseWriter, r *http.Request) {
	_, ups, ok := decodeUpdates(w, r, func(body []byte) (motion.Tick, []wire.Record, error) {
		var req ApplyRequest
		err := decodeJSON(body, &req)
		return 0, req.Updates, err
	})
	if !ok {
		return
	}
	bsp := requestSpan(r).Child("batch")
	bsp.SetAttrInt("updates", int64(len(ups)))
	err := s.srv.ApplyBatchTraced(ups, bsp)
	bsp.End()
	if err != nil {
		writePartial(w, fmt.Sprintf("apply %d", appliedOf(err)), err)
		return
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

// QueryResponse is the body returned by GET /v1/query: the documented shape,
// and what clients decode into. The handler never builds one —
// appendQueryReply writes its encoding straight from the engine's result —
// so a field added here must be added there, in the same position
// (TestQueryReplyMatchesEncodingJSON compares the two byte for byte).
type QueryResponse struct {
	Method      string       `json:"method"`
	At          motion.Tick  `json:"at"`
	Until       *motion.Tick `json:"until,omitempty"`
	Rho         float64      `json:"rho"`
	L           float64      `json:"l"`
	Rects       []RectJSON   `json:"rects"`
	Area        float64      `json:"area"`
	CPUMicros   int64        `json:"cpuMicros"`
	WallMicros  int64        `json:"wallMicros"`
	IOs         int64        `json:"ios"`
	TotalMicros int64        `json:"totalMicros"`
	// Cached reports the answer came from the result cache (for an interval,
	// every per-timestamp snapshot did); CachedCPUMicros is the evaluation
	// cost the cache saved.
	Cached          bool  `json:"cached,omitempty"`
	CachedCPUMicros int64 `json:"cachedCpuMicros,omitempty"`
}

// handleQuery answers GET /v1/query with parameters:
//
//	method   fr | pa                                (default fr)
//	rho      absolute density threshold, or
//	varrho   relative threshold (paper's 1..5)
//	l        neighborhood edge (required)
//	at       now | now+K | absolute tick            (default now)
//	until    optional: interval query end (same forms as at)
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	if qp.Has("outline") {
		httpError(w, http.StatusBadRequest, "outline is not served: pdrquery -svg draws a region's outline rings")
		return
	}
	method, err := core.ParseMethod(qp.Get("method"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if method != core.FR && method != core.PA {
		httpError(w, http.StatusBadRequest, "method %q is not served: /v1/query answers fr (exact) and pa (approximate)", qp.Get("method"))
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
	writeQueryReply(w, r, ans)
}

// atClock runs a request whose timestamps are relative to the engine's
// clock: run resolves them against now and calls the engine, answering with
// the HTTP status to report under. No lock spans the resolve and the engine
// call, so a tick landing between them can leave a resolved timestamp behind
// the window the engine answers. A run that failed while the clock moved is
// therefore resolved and run again against the new clock, until a failure is
// one at a clock still current when run returned: a now or now+K query never
// fails because a tick landed mid-request, and an absolute timestamp a tick
// left behind gets the 400 it gets after the tick. Only a tick that lands
// before the engine takes its lock can fail a run this way, so the loop ends
// at the first resolve no tick overtakes. A run that succeeded stands.
func atClock[T any](srv *core.Server, run func(now motion.Tick) (T, int, error)) (T, int, error) {
	for {
		now := srv.Now()
		v, code, err := run(now)
		if err == nil || srv.Now() == now {
			return v, code, err
		}
	}
}

// evalQuery resolves a query's clock-relative parameters and runs it at one
// clock (atClock). A failure comes back with the HTTP status to report it
// under.
func (s *Service) evalQuery(r *http.Request, qp url.Values, method core.Method, l float64) (queryAnswer, int, error) {
	return atClock(s.srv, func(now motion.Tick) (queryAnswer, int, error) {
		rho, err := s.parseRho(qp)
		if err != nil {
			return queryAnswer{}, http.StatusBadRequest, err
		}
		at, err := parseTick(qp.Get("at"), now, s.srv.Horizon())
		if err != nil {
			return queryAnswer{}, http.StatusBadRequest, err
		}
		ans := queryAnswer{q: core.Query{Rho: rho, L: l, At: at}}
		if u := qp.Get("until"); u != "" {
			var end motion.Tick
			if end, err = parseTick(u, now, s.srv.Horizon()); err != nil {
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
	})
}

// StatsResponse is the body of GET /v1/stats. Each number is read from the
// subsystem that counts it, the same place /metrics reads it, so the two
// surfaces always agree.
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
	QueriesServed  map[string]int64 `json:"queriesServed"`
	UptimeHorizon  motion.Tick      `json:"horizon"`
	// Result-cache counters (all zero when Config.CacheBytes is 0); the
	// same counters /metrics exposes as pdr_cache_*.
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

// parseRho resolves the density threshold of a query: rho= (absolute) when
// given, else varrho= relative to the live object count; one of the two is
// required.
func (s *Service) parseRho(qp url.Values) (float64, error) {
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
		return core.RelativeThreshold(s.srv.NumObjects(), varrho, s.srv.Config().Area), nil
	}
	return 0, errors.New("one of rho or varrho is required")
}

// parseTick parses a query timestamp ("now", "now+K", or an absolute tick)
// and validates it against the engine's live window [now, now+horizon], so
// clients get a clear 400 naming the window instead of an opaque engine
// failure. Past forms are refused with the live window they fall outside.
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
		return 0, fmt.Errorf("timestamp %q is in the past: the engine answers [now, now+%d]", v, horizon)
	default:
		k, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q", v)
		}
		t := motion.Tick(k)
		if t < now {
			return 0, fmt.Errorf("timestamp %d precedes now: the engine answers [%d, %d]", t, now, now+horizon)
		}
		if t > now+horizon {
			return 0, fmt.Errorf("timestamp %d is beyond the maintained horizon: the engine answers [%d, %d]", t, now, now+horizon)
		}
		return t, nil
	}
}

// ListenAndServe runs the service on addr until the listener fails. The
// full timeout set is configured so a slow or stalled client can never pin
// a handler goroutine indefinitely: WriteTimeout bounds the whole response,
// sized for exact FR interval queries which legitimately run tens of seconds
// at paper scale.
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
