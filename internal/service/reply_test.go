package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// referenceReply is the reply as the handlers built it before the append
// encoder: a QueryResponse filled in field by field, for encoding/json to
// reflect over. The cost fields are measurements, so they come from the
// reply under test; everything the answer determines comes from res.
func referenceReply(method string, q core.Query, until *motion.Tick, res *core.Result, outline bool, costs QueryResponse) QueryResponse {
	out := QueryResponse{
		Method: method, At: q.At, Until: until, Rho: q.Rho, L: q.L,
		Rects:           make([]RectJSON, len(res.Region)),
		Area:            res.Area,
		CPUMicros:       costs.CPUMicros,
		WallMicros:      costs.WallMicros,
		IOs:             costs.IOs,
		TotalMicros:     costs.TotalMicros,
		Cached:          res.Cached,
		CachedCPUMicros: costs.CachedCPUMicros,
	}
	for i, rect := range res.Region {
		out.Rects[i] = RectJSON{rect.MinX, rect.MinY, rect.MaxX, rect.MaxY}
	}
	if outline {
		for _, ring := range res.Region.Outline() {
			pts := make([]PointJSON, len(ring))
			for i, p := range ring {
				pts[i] = PointJSON{p.X, p.Y}
			}
			out.Rings = append(out.Rings, pts)
		}
	}
	return out
}

// TestQueryReplyMatchesEncodingJSON is the golden-bytes pin of the append
// encoder: for every reply shape the handlers produce, the body on the wire
// is byte for byte — trailing newline included — what encoding/json writes
// for the QueryResponse holding the same answer, the answer being the
// engine's own for the same query.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	svc, ts := testServiceWith(t, func(cfg *core.Config) {
		cfg.CacheBytes = 16 << 20
		cfg.KeepHistory = true
	})
	g := loadWorkload(t, ts, 1500)
	advanceTicks(t, ts, g, 3)
	eng := svc.Engine()
	now := eng.Now()
	rho := 3 * 1500 / eng.Config().Area.Area()

	cases := []struct {
		name    string
		path    string // /v1/query or /v1/past
		query   string
		method  core.Method
		rho     float64
		at      motion.Tick
		until   *motion.Tick
		outline bool
		cached  bool
		empty   bool
	}{
		{name: "fr", query: "method=fr", method: core.FR, rho: rho, at: now + 2},
		{name: "pa", query: "method=pa", method: core.PA, rho: rho, at: now + 2},
		{name: "dh-opt", query: "method=dh-opt", method: core.DHOptimistic, rho: rho, at: now + 2},
		{name: "dh-pess", query: "method=dh-pess", method: core.DHPessimistic, rho: rho / 2, at: now + 2},
		{name: "fr interval", query: "method=fr", method: core.FR, rho: rho, at: now + 1, until: tickPtr(now + 4)},
		{name: "outline", query: "method=fr&outline=1", method: core.FR, rho: rho, at: now + 5, outline: true},
		{name: "empty", query: "method=fr", method: core.FR, rho: 1e3, at: now, empty: true},
		{name: "cached", query: "method=fr", method: core.FR, rho: rho, at: now + 2, cached: true},
		{name: "past", path: "/v1/past", rho: rho, at: now - 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/query"
			}
			target := path + "?" + tc.query + "&l=60&rho=" + strconv.FormatFloat(tc.rho, 'g', -1, 64) +
				"&at=" + strconv.FormatInt(int64(tc.at), 10)
			if tc.until != nil {
				target += "&until=" + strconv.FormatInt(int64(*tc.until), 10)
			}
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
			}
			body := rec.Body.Bytes()
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Errorf("Content-Length %q for a %d-byte body", cl, len(body))
			}
			var got QueryResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}

			// The engine's own answer to the same query, asked after the
			// request so the request's cache outcome is the case's.
			q := core.Query{Rho: tc.rho, L: 60, At: tc.at}
			var res *core.Result
			var err error
			method := "past-exact"
			switch {
			case tc.path == "/v1/past":
				res, err = eng.PastSnapshot(q)
			case tc.until != nil:
				res, err = eng.Interval(q, *tc.until, tc.method)
				method = tc.method.String()
			default:
				res, err = eng.Snapshot(q, tc.method)
				method = tc.method.String()
			}
			if err != nil {
				t.Fatal(err)
			}
			res.Cached = tc.cached
			if tc.empty != (len(res.Region) == 0) {
				t.Fatalf("answer has %d rectangles, empty case: %v", len(res.Region), tc.empty)
			}
			if got.Cached != tc.cached || (tc.cached && got.CachedCPUMicros == 0) {
				t.Fatalf("reply cached=%v cachedCpuMicros=%d, case wants cached=%v", got.Cached, got.CachedCPUMicros, tc.cached)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(referenceReply(method, q, tc.until, res, tc.outline, got)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("reply differs from encoding/json's (%d bytes against %d):\n got %.300s\nwant %.300s",
					len(body), want.Len(), body, want.Bytes())
			}
			if tc.outline && len(got.Rings) == 0 {
				t.Fatal("outline=1 reply carries no rings")
			}
		})
	}
}

func tickPtr(t motion.Tick) *motion.Tick { return &t }

// TestNonFiniteReplyIsAClean500: JSON cannot carry NaN or ±Inf. A reply that
// would contain one — a rectangle coordinate, the area, an echoed parameter —
// is a whole application/json 500 from the append encoder and from the
// reflective path alike, never a truncated 200.
func TestNonFiniteReplyIsAClean500(t *testing.T) {
	clean500 := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q, want application/json", ct)
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("body %q is not an error envelope (%v)", rec.Body, err)
		}
	}
	region := geom.Region{geom.NewRect(0, 0, 10, 10), geom.NewRect(10, 0, 20, 10)}
	for name, ans := range map[string]queryAnswer{
		"coordinate": {method: "FR", q: core.Query{Rho: 1, L: 60}, res: &core.Result{
			Region: geom.Region{region[0], {MinX: 10, MinY: 0, MaxX: math.Inf(1), MaxY: 10}}}},
		"area":  {method: "FR", q: core.Query{Rho: 1, L: 60}, res: &core.Result{Region: region, Area: math.NaN()}},
		"param": {method: "FR", q: core.Query{Rho: math.Inf(-1), L: 60}, res: &core.Result{Region: region, Area: 200}},
	} {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeQueryReply(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), ans, false)
			clean500(t, rec)
		})
	}
	t.Run("reflective", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeJSON(rec, ContourResponse{Level: math.NaN()})
		clean500(t, rec)
	})
	// End to end, through the middleware's recorder: rho=NaN passes every
	// range check (no comparison with NaN is true) and is echoed in the reply.
	_, ts := testService(t)
	loadWorkload(t, ts, 200)
	resp, err := http.Get(ts.URL + "/v1/query?method=dh-opt&rho=NaN&l=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("rho=NaN: status %d, Content-Type %q; want a JSON 500", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("rho=NaN: body is not an error envelope (%v)", err)
	}
}

// sameAsEncodingJSON holds appendFloat to json.Marshal on one value.
func sameAsEncodingJSON(t *testing.T, f float64) {
	t.Helper()
	got, err := appendFloat(nil, f)
	want, jerr := json.Marshal(f)
	if (err != nil) != (jerr != nil) {
		t.Fatalf("%v (%#x): appendFloat error %v, json.Marshal error %v", f, math.Float64bits(f), err, jerr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): appendFloat %s, json.Marshal %s", f, math.Float64bits(f), got, want)
	}
	if err != nil && len(got) != 0 {
		t.Fatalf("%v: rejected but appended %q", f, got)
	}
}

// FuzzAppendFloatMatchesEncodingJSON: every finite float64 formats exactly
// as encoding/json formats it, and NaN and ±Inf are rejected as it rejects
// them.
func FuzzAppendFloatMatchesEncodingJSON(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 123.456, 1000, 0.1, 1.0 / 3,
		1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324,
		1e20, 9.999999999999999e20, 1e21, -1e21, 1e22, 1e100, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		sameAsEncodingJSON(t, math.Float64frombits(bits))
	})
}

// TestAppendFloatRandomBits sweeps random bit patterns (every exponent, so
// both 'e' ranges and the non-finite values turn up) and the lattice-like
// coordinates replies are made of, inside plain `go test`.
func TestAppendFloatRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		sameAsEncodingJSON(t, math.Float64frombits(rng.Uint64()))
		sameAsEncodingJSON(t, math.Floor(rng.Float64()*1e7)/1e4)
	}
}

// benchAnswer is an answer the size of an l=45, varrho=3 exact reply at
// n=20,000: ~8k disjoint rectangles with full-precision coordinates.
func benchAnswer() queryAnswer {
	rng := rand.New(rand.NewSource(9))
	region := make(geom.Region, 8147)
	for i := range region {
		x, y := float64(i%90)*11, float64(i/90)*11
		region[i] = geom.NewRect(x+rng.Float64(), y+rng.Float64(), x+5+rng.Float64(), y+5+rng.Float64())
	}
	return queryAnswer{method: "FR", q: core.Query{Rho: 0.06, L: 45, At: 8}, res: &core.Result{
		Method: core.FR, Region: region, Area: geom.DisjointArea(region),
		CPU: 17 * time.Millisecond, Wall: 17 * time.Millisecond, IOs: 120, IOTime: 1200 * time.Millisecond,
	}}
}

// BenchmarkEncodeQueryReply is the steady state of the reply path: the
// buffer comes from the pool already grown, the region is walked once, and
// nothing is allocated (scripts/check.sh pins allocs/op at 0).
func BenchmarkEncodeQueryReply(b *testing.B) {
	ans := benchAnswer()
	encode := func() int {
		pb := replyBufs.Get().(*[]byte)
		body, err := appendQueryReply((*pb)[:0], ans, nil)
		if err != nil {
			b.Fatal(err)
		}
		*pb = body
		replyBufs.Put(pb)
		return len(body)
	}
	b.SetBytes(int64(encode())) // and the pooled buffer is grown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode()
	}
}
