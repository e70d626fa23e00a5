package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/transcript.txt from this build's replies")

// volatileFields are the reply fields the transcript masks: measured
// timings and process facts that differ between two runs of the same build.
// Everything else in a reply is a function of the session alone.
var volatileFields = regexp.MustCompile(`"(cpuMicros|wallMicros|totalMicros|cachedCpuMicros|uptimeSeconds|goroutines)":[-0-9.eE+]+`)

// TestGoldenTranscript replays a fixed, seeded HTTP session against a fresh
// service and compares every exchange with testdata/transcript.txt, one line
// per exchange: the request, the status, the Content-Type and the reply body
// byte for byte (volatileFields masked). It pins what the engine tests
// cannot: status codes, error texts, 409 applied counts, /v1/stats fields
// and the reply encoding itself. -update-transcript rewrites the file, which
// is only right when a reply is meant to change.
func TestGoldenTranscript(t *testing.T) {
	const path = "testdata/transcript.txt"
	got := recordTranscript(t)
	if *updateTranscript {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-transcript to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d: reply differs\n got: %.600s\nwant: %.600s", path, i+1, g, w)
		}
	}
}

// transcript drives one service and records its exchanges.
type transcript struct {
	t   *testing.T
	svc *Service
	ts  *httptest.Server
	out bytes.Buffer
}

// do sends one request over the wire and records the exchange. label
// replaces the request body in the record when the body is too long to
// read; an empty label records the body itself.
func (tr *transcript) do(method, target string, body []byte, label string) {
	tr.t.Helper()
	req, err := http.NewRequest(method, tr.ts.URL+target, bytes.NewReader(body))
	if err != nil {
		tr.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		tr.t.Fatal(err)
	}
	tr.record(method, target, body, label, resp.StatusCode, resp.Header, reply)
}

// serve hands one request to the service directly, for a request the
// client cannot put on the wire as-is (a declared length over the body
// limit), and records the exchange.
func (tr *transcript) serve(req *http.Request, label string) {
	tr.t.Helper()
	rec := httptest.NewRecorder()
	tr.svc.ServeHTTP(rec, req)
	tr.record(req.Method, req.URL.RequestURI(), nil, label, rec.Code, rec.Header(), rec.Body.Bytes())
}

func (tr *transcript) record(method, target string, body []byte, label string, status int, h http.Header, reply []byte) {
	tr.t.Helper()
	if cl := h.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(reply)) {
		tr.t.Fatalf("%s %s: Content-Length %s, body %d bytes", method, target, cl, len(reply))
	}
	if label == "" && len(body) > 0 {
		label = string(body)
	}
	fmt.Fprintf(&tr.out, "%s %s", method, target)
	if label != "" {
		fmt.Fprintf(&tr.out, " %s", label)
	}
	fmt.Fprintf(&tr.out, " -> %d %s ", status, h.Get("Content-Type"))
	masked := volatileFields.ReplaceAll(reply, []byte(`"$1":"*"`))
	// A reply that is one newline-terminated line is written as it is, its
	// newline ending the record; any other is written Go-quoted.
	if n := bytes.IndexByte(masked, '\n'); n >= 0 && n == len(masked)-1 {
		tr.out.Write(masked)
	} else {
		tr.out.WriteString("q" + strconv.Quote(string(masked)) + "\n")
	}
}

// updatesBody encodes a tick of generator updates as a /v1/updates body.
func updatesBody(now motion.Tick, ups []motion.Update) []byte {
	req := UpdatesRequest{Now: now, Updates: make([]wire.Record, 0, len(ups))}
	for _, u := range ups {
		kind := wire.KindInsert
		if u.Kind == motion.Delete {
			kind = wire.KindDelete
		}
		req.Updates = append(req.Updates, wire.FromState(kind, u.State, u.At))
	}
	body, _ := json.Marshal(req)
	return body
}

// recordTranscript runs the session over 300 objects of seed 7 preloaded
// through the engine, as pdrserve -data does: ticks and applies with their
// failure modes, FR and PA as a snapshot and an interval, the refusals of
// what /v1/query does not serve, more ticks, stats, and the routing errors.
func recordTranscript(t *testing.T) []byte {
	t.Helper()
	svc, ts := testService(t)
	tr := &transcript{t: t, svc: svc, ts: ts}

	tr.do("GET", "/healthz", nil, "")
	gcfg := datagen.DefaultConfig(300)
	gcfg.Seed = 7
	g, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Engine().Load(g.InitialStates()); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		ups := g.Advance()
		tr.do("POST", "/v1/updates", updatesBody(g.Now(), ups), fmt.Sprintf("[tick %d, %d records]", g.Now(), len(ups)))
	}
	for i := 0; i < 3; i++ {
		tick()
	}

	// Writes the engine refuses, and the bodies the service refuses.
	tr.do("POST", "/v1/apply", []byte(`{"updates":[{"kind":"insert","tick":3,"id":900001,"x":400,"y":400,"vx":2,"vy":1,"ref":3},{"kind":"delete","tick":3,"id":900002,"x":1,"y":1,"vx":0,"vy":0,"ref":0}]}`), "")
	tr.do("POST", "/v1/apply", []byte(`{"updates":[{"kind":"delete","tick":3,"id":900001,"x":400,"y":400,"vx":2,"vy":1,"ref":3}]}`), "")
	tr.do("POST", "/v1/apply", []byte(`{"updates":[{"kind":"state","id":1}]}`), "")
	tr.do("POST", "/v1/updates", []byte(`{"now":3,"updates":[{"kind":"insert","tick":3,"id":900003,"x":600,"y":300,"vx":-1,"vy":2,"ref":3},{"kind":"delete","tick":3,"id":900004,"x":1,"y":1,"vx":0,"vy":0,"ref":0}]}`), "")
	tr.do("POST", "/v1/updates", []byte(`{"now":2,"updates":[]}`), "")
	tr.do("POST", "/v1/updates", []byte(`{"now":4,"updates":[{"kind":"insert",`), "")
	tr.do("POST", "/v1/apply", []byte(`{"updates":"none"}`), "")
	big := httptest.NewRequest("POST", "/v1/updates", strings.NewReader("{}"))
	big.ContentLength = maxBodyBytes + 1
	tr.serve(big, fmt.Sprintf("[declared length %d]", big.ContentLength))
	tick()

	// Both served methods as a snapshot and an interval, then what is not
	// served: the baselines, outlines and the load route.
	for _, m := range []string{"fr", "pa"} {
		tr.do("GET", "/v1/query?method="+m+"&varrho=8&l=60&at=now%2B5", nil, "")
		tr.do("GET", "/v1/query?method="+m+"&varrho=8&l=60&until=now%2B2", nil, "")
	}
	for _, m := range []string{"dh-opt", "dh-pess", "bf"} {
		tr.do("GET", "/v1/query?method="+m+"&varrho=8&l=60&at=now%2B5", nil, "")
	}
	tr.do("GET", "/v1/query?method=fr&varrho=8&l=60&at=now%2B1&outline=1", nil, "")
	tr.do("POST", "/v1/load", []byte(`{"states":[]}`), "")
	tr.do("GET", "/v1/query?method=fr&rho=0.0012&l=80&at=now", nil, "")
	for _, q := range []string{
		"method=banana&l=60&varrho=1",
		"method=fr&l=abc&varrho=1",
		"method=fr&l=60",
		"method=fr&l=60&rho=xyz",
		"method=fr&l=60&varrho=1&at=later",
		"method=fr&l=60&varrho=1&at=9999",
		"method=fr&l=60&varrho=1&at=now-3",
		"method=fr&l=60&varrho=1&at=1",
		"method=fr&l=60&varrho=1&until=now%2B9999",
		"method=fr&l=60&varrho=1&at=now%2B3&until=now%2B1",
		"method=pa&l=45&varrho=1",
		"method=pa&l=45&varrho=1&until=now%2B2",
		"method=fr&l=20&varrho=1",
		"method=fr&l=60&rho=-1",
	} {
		tr.do("GET", "/v1/query?"+q, nil, "")
	}

	// More ticks.
	for i := 0; i < 3; i++ {
		tick()
	}

	// Stats, then the routing errors.
	tr.do("GET", "/v1/stats", nil, "")
	tr.do("GET", "/v1/nope", nil, "")
	tr.do("POST", "/v1/watch", []byte(`{"varrho":8,"l":60,"ahead":5,"every":1,"method":"pa"}`), "")
	tr.do("DELETE", "/v1/watch/1", nil, "")
	tr.do("GET", "/v1/past?varrho=8&l=60&at=now-2", nil, "")
	tr.do("GET", "/v1/contours?level=0.0004&res=16", nil, "")
	tr.do("GET", "/v1/load", nil, "")
	tr.do("DELETE", "/v1/query", nil, "")
	tr.do("POST", "/v1/stats", nil, "")
	return tr.out.Bytes()
}
