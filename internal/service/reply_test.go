package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// referenceReply is the reply as the handlers built it before the append
// encoder: a QueryResponse filled in field by field, for encoding/json to
// reflect over. The cost fields are measurements, so they come from the
// reply under test; everything the answer determines comes from res.
func referenceReply(method string, q core.Query, until *motion.Tick, res *core.Result, costs QueryResponse) QueryResponse {
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
	return out
}

// TestQueryReplyMatchesEncodingJSON is the golden-bytes pin of the append
// encoder: for every reply shape the handlers produce, the body on the wire
// is byte for byte — trailing newline included — what encoding/json writes
// for the QueryResponse holding the same answer, the answer being the
// engine's own for the same query. The DH baselines are not served, so their
// answers, whose coordinates are histogram-cell integers, are encoded by
// writeQueryReply straight from the engine.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	svc, ts := testServiceWith(t, func(cfg *core.Config) { cfg.CacheBytes = 16 << 20 })
	g := loadWorkload(t, svc, 1500)
	advanceTicks(t, ts, g, 3)
	eng := svc.Engine()
	now := eng.Now()
	rho := 3 * 1500 / eng.Config().Area.Area()

	cases := []struct {
		name    string
		query   string
		method  core.Method
		rho     float64
		at      motion.Tick
		until   *motion.Tick
		library bool // not served: encoded from the engine's answer
		cached  bool
		empty   bool
	}{
		{name: "fr", query: "method=fr", method: core.FR, rho: rho, at: now + 2},
		{name: "pa", query: "method=pa", method: core.PA, rho: rho, at: now + 2},
		{name: "dh-opt", method: core.DHOptimistic, rho: rho, at: now + 2, library: true},
		{name: "dh-pess", method: core.DHPessimistic, rho: rho / 2, at: now + 2, library: true},
		{name: "fr interval", query: "method=fr", method: core.FR, rho: rho, at: now + 1, until: tickPtr(now + 4)},
		{name: "empty", query: "method=fr", method: core.FR, rho: 1e3, at: now, empty: true},
		{name: "cached", query: "method=fr", method: core.FR, rho: rho, at: now + 2, cached: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The engine's own answer to the same query: asked after a served
			// request, so the request's cache outcome is the case's.
			q := core.Query{Rho: tc.rho, L: 60, At: tc.at}
			answer := func() (res *core.Result) {
				t.Helper()
				var err error
				if tc.until != nil {
					res, err = eng.Interval(q, *tc.until, tc.method)
				} else {
					res, err = eng.Snapshot(q, tc.method)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			rec := httptest.NewRecorder()
			var res *core.Result
			if tc.library {
				res = answer()
				writeQueryReply(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil),
					queryAnswer{method: tc.method.String(), q: q, until: tc.until, res: res})
			} else {
				target := "/v1/query?" + tc.query + "&l=60&rho=" + strconv.FormatFloat(tc.rho, 'g', -1, 64) +
					"&at=" + strconv.FormatInt(int64(tc.at), 10)
				if tc.until != nil {
					target += "&until=" + strconv.FormatInt(int64(*tc.until), 10)
				}
				svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				res = answer()
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
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
			res.Cached = tc.cached
			if tc.empty != (len(res.Region) == 0) {
				t.Fatalf("answer has %d rectangles, empty case: %v", len(res.Region), tc.empty)
			}
			if got.Cached != tc.cached || (tc.cached && got.CachedCPUMicros == 0) {
				t.Fatalf("reply cached=%v cachedCpuMicros=%d, case wants cached=%v", got.Cached, got.CachedCPUMicros, tc.cached)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(referenceReply(tc.method.String(), q, tc.until, res, got)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("reply differs from encoding/json's (%d bytes against %d):\n got %.300s\nwant %.300s",
					len(body), want.Len(), body, want.Bytes())
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
			writeQueryReply(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), ans)
			clean500(t, rec)
		})
	}
	t.Run("reflective", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeJSON(rec, StatsResponse{PoolHitRatio: math.NaN()})
		clean500(t, rec)
	})
	// End to end, through the middleware's recorder: rho=NaN, which no
	// range comparison catches, never reaches the reply — the engine
	// rejects it up front as a JSON 422.
	svc, ts := testService(t)
	loadWorkload(t, svc, 200)
	resp, err := http.Get(ts.URL + "/v1/query?method=fr&rho=NaN&l=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("rho=NaN: status %d, Content-Type %q; want a JSON 422", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("rho=NaN: body is not an error envelope (%v)", err)
	}
}

// sameAsEncodingJSON holds appendFloat to json.Marshal on one value, and
// the printed bytes to f: strconv.ParseFloat reads back f's own bits.
func sameAsEncodingJSON(t *testing.T, f float64) {
	t.Helper()
	got, err := appendFloat(nil, f)
	want, jerr := json.Marshal(f)
	if (err != nil) != (jerr != nil) {
		t.Fatalf("%v (%#x): appendFloat error %v, json.Marshal error %v", f, math.Float64bits(f), err, jerr)
	}
	if err != nil {
		if len(got) != 0 {
			t.Fatalf("%v: rejected but appended %q", f, got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): appendFloat %s, json.Marshal %s", f, math.Float64bits(f), got, want)
	}
	if back, err := strconv.ParseFloat(string(got), 64); err != nil || math.Float64bits(back) != math.Float64bits(f) {
		t.Fatalf("%#x: printed %s, which parses to %#x (%v)", math.Float64bits(f), got, math.Float64bits(back), err)
	}
}

// The biased binary exponents of the floats appendShortestF prints: 2^-20
// holds 1e-6, 2^69 the floats just below 1e21. Exponents one past either
// end print through strconv.
const (
	shortestExpMin = 1023 - 20
	shortestExpMax = 1023 + 69
)

// fromParts is the float64 with the given sign bit, biased exponent and 52
// mantissa bits.
func fromParts(sign, exp, mant uint64) float64 {
	return math.Float64frombits(sign<<63 | exp<<52 | mant&(1<<52-1))
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
		// The dyadic fast path's edges: the smallest step, the largest
		// magnitudes in and the first out, a PA lattice line.
		0x1p-10, -0x1p-10, 97655.9990234375, 97656, 403.125, -0.5, 97656.25,
	} {
		f.Add(math.Float64bits(v))
	}
	// The shortest-decimal printer's ends beside the seeds above: the floats
	// either side of 1e-6 and above 1e21 (its table's first k is 1e-6's,
	// its last the float's below 1e21), and powers of two, whose lower
	// rounding gap is half the upper, at and past its exponent range.
	for _, v := range []float64{
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), math.Nextafter(1e21, 2e21),
		0x1p-20, 0x1p-21, 0x1p69, 0x1p70, 0x1p-1, -0x1p33,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		sameAsEncodingJSON(t, math.Float64frombits(bits))
		// Raw bits seldom land on a multiple of 2^-10, so each input is
		// also read as m/1024 with m in [-1e8, 1e8]: the fast path's
		// whole domain and its edge.
		m := int64(bits%200000001) - 100000000
		sameAsEncodingJSON(t, float64(m)/1024)
		// Raw bits land in the 'f' range ~4% of the time, so each input is
		// also read as its sign and mantissa under an exponent folded into
		// the shortest-decimal printer's range, one past either end
		// included.
		exp := shortestExpMin - 1 + (bits>>52&0x7ff)%(shortestExpMax-shortestExpMin+3)
		sameAsEncodingJSON(t, fromParts(bits>>63, exp, bits))
	})
}

// TestAppendFloatRandomBits sweeps random bit patterns (every exponent, so
// both 'e' ranges and the non-finite values turn up), decimal coordinates
// with four places, and random multiples of 2^-10 over the dyadic fast
// path's range and just past it, inside plain `go test`; and every fraction
// of 1024 at the integer parts the fast path's range starts and ends with.
// For the shortest-decimal printer it adds, with both signs: random
// full-mantissa floats at every binary exponent it covers and one past each
// end; every power of two there, whose lower rounding gap is halved; and
// each power of ten from 1e-6 to 1e21 with its neighbours.
func TestAppendFloatRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		sameAsEncodingJSON(t, math.Float64frombits(rng.Uint64()))
		sameAsEncodingJSON(t, math.Floor(rng.Float64()*1e7)/1e4)
		sameAsEncodingJSON(t, float64(rng.Int63n(2.2e8)-1.1e8)/1024)
	}
	for _, ip := range []float64{0, 1, 403, 97655, 97656} {
		for frac := 0; frac < 1024; frac++ {
			sameAsEncodingJSON(t, ip+float64(frac)/1024)
			sameAsEncodingJSON(t, -ip-float64(frac)/1024)
		}
	}
	for exp := uint64(shortestExpMin - 1); exp <= shortestExpMax+1; exp++ {
		for sign := uint64(0); sign < 2; sign++ {
			sameAsEncodingJSON(t, fromParts(sign, exp, 0))
			for i := 0; i < 1000; i++ {
				sameAsEncodingJSON(t, fromParts(sign, exp, rng.Uint64()))
			}
		}
	}
	for p := -6; p <= 21; p++ {
		for _, v := range []float64{math.Pow10(p), -math.Pow10(p)} {
			sameAsEncodingJSON(t, v)
			sameAsEncodingJSON(t, math.Nextafter(v, 0))
			sameAsEncodingJSON(t, math.Nextafter(v, 2*v))
		}
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

// TestSplitReplyMatchesSerial: the two-goroutine encoder writes the serial
// encoder's bytes — on either side of the split size, and with a non-finite
// coordinate in either half, which both refuse.
func TestSplitReplyMatchesSerial(t *testing.T) {
	big := benchAnswer()
	small := benchAnswer()
	small.res = &core.Result{Region: big.res.Region[:splitRects-1], Area: 1}
	over := benchAnswer()
	over.res = &core.Result{Region: big.res.Region[:splitRects+1], Area: 2}
	for name, a := range map[string]queryAnswer{"big": big, "small": small, "over": over} {
		want, err := appendQueryReply(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendQueryReplySplit([]byte("stale"), a)
		if err != nil || !bytes.Equal(got[len("stale"):], want) {
			t.Fatalf("%s: split reply differs from the serial one (err %v)", name, err)
		}
	}
	for _, at := range []int{0, len(big.res.Region) - 1} {
		bad := benchAnswer()
		bad.res.Region[at].MaxX = math.Inf(1)
		if _, err := appendQueryReplySplit(nil, bad); err == nil {
			t.Fatalf("non-finite coordinate at %d: no error", at)
		}
	}
}

// paBenchAnswer is an answer the size of a varrho=1 PA reply at n=20,000:
// ~2,600 disjoint lattice boxes on the default surface's 3.125-unit floor.
func paBenchAnswer() queryAnswer {
	rng := rand.New(rand.NewSource(9))
	region := make(geom.Region, 0, 2600)
	for i := 0; len(region) < cap(region); i++ {
		x, y := float64(i%100)*10, float64(i/100)*10
		w, h := float64(1+rng.Intn(3))*3.125, float64(1+rng.Intn(3))*3.125
		region = append(region, geom.NewRect(x, y, x+w, y+h))
	}
	return queryAnswer{method: "PA", q: core.Query{Rho: 0.02, L: 30, At: 8}, res: &core.Result{
		Method: core.PA, Region: region, Area: geom.DisjointArea(region),
		CPU: 6 * time.Millisecond, Wall: 6 * time.Millisecond,
	}}
}

// engineFRAnswer is an exact answer as the engine computes it: datagen's
// n=20,000 workload (seed 1), l=45, varrho=3, at now+8. Unlike benchAnswer's
// random coordinates, its edges are objects' positions ± l/2, and
// neighbouring rectangles share edges. It is built once per test binary.
var engineFRAnswer = sync.OnceValues(func() (queryAnswer, error) {
	const n = 20000
	cfg := core.DefaultConfig()
	cfg.L = 45
	srv, err := core.NewServer(cfg)
	if err != nil {
		return queryAnswer{}, err
	}
	g, err := datagen.New(datagen.DefaultConfig(n))
	if err != nil {
		return queryAnswer{}, err
	}
	if err := srv.Load(g.InitialStates()); err != nil {
		return queryAnswer{}, err
	}
	q := core.Query{Rho: 3 * n / cfg.Area.Area(), L: 45, At: srv.Now() + 8}
	res, err := srv.Snapshot(q, core.FR)
	return queryAnswer{method: core.FR.String(), q: q, res: res}, err
})

// encodeCase is a named answer to encode.
type encodeCase struct {
	name string
	ans  queryAnswer
}

// encodeCases are BenchmarkEncodeQueryReply's answers, for the steady state
// of the reply path: an exact answer's full-precision coordinates (fr,
// random; fr-engine, the engine's own) and a PA answer's lattice ones (pa).
// The buffer comes from the pool already grown, the region is walked once,
// and nothing is allocated (TestEncodeQueryReplyAllocs pins each at 0).
func encodeCases(tb testing.TB) []encodeCase {
	engine, err := engineFRAnswer()
	if err != nil {
		tb.Fatal(err)
	}
	return []encodeCase{{"fr", benchAnswer()}, {"fr-engine", engine}, {"pa", paBenchAnswer()}}
}

// encode is BenchmarkEncodeQueryReply's call: ans's reply appended into a
// pooled buffer, as writeQueryReply does. It returns the reply's length.
func encode(ans queryAnswer) (int, error) {
	pb := replyBufs.Get().(*[]byte)
	body, err := appendQueryReply((*pb)[:0], ans)
	*pb = body
	replyBufs.Put(pb)
	return len(body), err
}

// BenchmarkEncodeQueryReply times encode, one sub-benchmark per case.
func BenchmarkEncodeQueryReply(b *testing.B) {
	for _, c := range encodeCases(b) {
		b.Run(c.name, func(b *testing.B) {
			n, err := encode(c.ans) // and the pooled buffer is grown
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode(c.ans)
			}
		})
	}
}

// TestEncodeQueryReplyAllocs pins BenchmarkEncodeQueryReply's call at zero
// allocations for each case: the encoder builds no intermediate value.
func TestEncodeQueryReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	for _, c := range encodeCases(t) {
		if _, err := encode(c.ans); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { encode(c.ans) }); n != 0 {
			t.Errorf("BenchmarkEncodeQueryReply/%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
