package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pdr/bench/plan"
)

// requestTimeout is the longest a single request may take; a request that
// exceeds it counts as failed.
const requestTimeout = 60 * time.Second

// sample is one timed request.
type sample struct {
	class string
	op    plan.Op // the query asked; zero for a write
	ms    float64
	ok    bool
}

// client is one persistent connection's worth of requests to the server: a
// workload client sends its requests one after another over it.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply, as a caller that uses the
// answer would. A transport error, a timeout and a non-2xx status all come
// back as err.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// timed sends a request and records its latency from `from` (the send time
// for a closed loop, the due time for an open one).
func (c *client) timed(class, method, path string, body []byte, from time.Time) (sample, error) {
	_, err := c.do(method, path, body)
	return sample{class: class, ms: float64(time.Since(from)) / float64(time.Millisecond), ok: err == nil}, err
}

// query runs one query op with relative timestamps.
func (c *client) query(op plan.Op, n int) (sample, error) {
	s, err := c.timed(op.Class, http.MethodGet, "/v1/query?"+op.Query(n, -1), nil, time.Now())
	s.op = op
	return s, err
}

// answer is the part of a query reply the checks read.
type answer struct {
	Rects []plan.Rect `json:"rects"`
}

// ask runs one check query at absolute timestamps and decodes its rectangles.
func (c *client) ask(op plan.Op, n int, now int64) ([]plan.Rect, error) {
	body, err := c.do(http.MethodGet, "/v1/query?"+op.Query(n, now), nil)
	if err != nil {
		return nil, err
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	return a.Rects, nil
}

// applyBody renders a POST /v1/apply body from update records.
func applyBody(recs []plan.Record) ([]byte, error) {
	return json.Marshal(struct {
		Updates []plan.Record `json:"updates"`
	}{recs})
}

// stats is the subset of GET /v1/stats the traced run reads.
type stats struct {
	HistogramBytes float64 `json:"histogramBytes"`
	SurfaceBytes   float64 `json:"surfaceBytes"`
	IndexPages     float64 `json:"indexPages"`
	PoolReads      float64 `json:"poolReads"`
	PoolHits       float64 `json:"poolHits"`
	CacheHits      float64 `json:"cacheHits"`
	CacheMisses    float64 `json:"cacheMisses"`
	// Requests and Non2xx are summed from /metrics' per-route, per-status
	// pdr_http_requests_total.
	Requests float64 `json:"-"`
	Non2xx   float64 `json:"-"`
}

// scrape reads the counters the server already exports: /v1/stats, and the
// per-status request counts of /metrics. Read, never modified.
func (c *client) scrape() (stats, error) {
	var st stats
	body, err := c.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /v1/stats: %w", err)
	}
	body, err = c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "pdr_http_requests_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return st, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
		st.Requests += v
		if !strings.Contains(line, `status="2`) {
			st.Non2xx += v
		}
	}
	return st, nil
}
