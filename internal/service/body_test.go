package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdr/internal/wire"
)

// post sends body to route and returns the status, the reply and its trace ID.
func post(t *testing.T, ts *httptest.Server, route, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply, resp.Header.Get(TraceIDHeader)
}

// spanAttrs returns the attributes of the named child of a stored trace's
// root, nil when there is no such span.
func spanAttrs(t *testing.T, ts *httptest.Server, traceID, name string) map[string]string {
	t.Helper()
	var tr TraceResponse
	if resp := getJSON(t, ts.URL+"/debug/traces/"+traceID, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup status %d", resp.StatusCode)
	}
	for _, c := range tr.Root.Children {
		if c.Name == name {
			attrs := map[string]string{}
			for _, a := range c.Attrs {
				attrs[a.Key] = a.Value
			}
			return attrs
		}
	}
	return nil
}

// TestUpdatesHandlerFallsBack: a body wire.DecodeUpdates declines — folded
// key case, an unknown member, an escape — is still encoding/json's to read,
// and applies exactly as the canonical spelling does. The decode span tells
// the two paths apart.
func TestUpdatesHandlerFallsBack(t *testing.T) {
	var log syncBuffer
	ts := tracedTestService(t, WithSlowQueryLog(time.Nanosecond, &log))
	canonical := `{"now":1,"updates":[{"kind":"insert","tick":1,"id":900001,"x":400,"y":400,"vx":2,"vy":1,"ref":1}]}`
	unusual := `{"comment":"{", "NOW":2, "Updates":[{"KIND":"insert","tick":2,"id":900002,"x":4e2,"y":400,"vx":2,"vy":1,"ref":2}]}`
	if _, _, ok := wire.DecodeUpdates([]byte(canonical)); !ok {
		t.Fatal("the canonical body does not take the fast path")
	}
	if _, _, ok := wire.DecodeUpdates([]byte(unusual)); ok {
		t.Fatal("the unusual body does not exercise the fallback")
	}
	for i, body := range []string{canonical, unusual} {
		code, reply, id := post(t, ts, "/v1/updates", body)
		var ur UpdatesResponse
		if err := json.Unmarshal(reply, &ur); err != nil || code != http.StatusOK {
			t.Fatalf("body %d: status %d, reply %s (%v)", i, code, reply, err)
		}
		if ur.Applied != 1 || ur.Objects != 501+i || int(ur.Now) != 1+i {
			t.Errorf("body %d: reply %+v, want 1 applied, %d objects at now=%d", i, ur, 501+i, 1+i)
		}
		attrs := spanAttrs(t, ts, id, "decode")
		if attrs["records"] != "1" || attrs["bytes"] != strconv.Itoa(len(body)) || attrs["fallback"] != strconv.Itoa(i) {
			t.Errorf("body %d: decode span %v, want records=1 bytes=%d fallback=%d", i, attrs, len(body), i)
		}
	}
	// /v1/apply shares the decoder and keeps its own fallback type: "now" is
	// not a member of ApplyRequest, so encoding/json ignores whatever it holds.
	code, reply, id := post(t, ts, "/v1/apply", `{"now":"ignored","updates":[{"kind":"insert","tick":2,"id":900003,"x":1,"y":1,"ref":2}]}`)
	if code != http.StatusOK {
		t.Fatalf("apply through the fallback: status %d, reply %s", code, reply)
	}
	if attrs := spanAttrs(t, ts, id, "decode"); attrs["fallback"] != "1" || attrs["records"] != "1" {
		t.Errorf("apply decode span %v, want fallback=1 records=1", attrs)
	}
	// The slow log carries the decode time of write routes and only of those.
	sc := bufio.NewScanner(strings.NewReader(log.String()))
	routes := map[string]int{}
	for sc.Scan() {
		var line struct {
			Route        string
			DecodeMicros *int64
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.DecodeMicros != nil && line.Route != "/v1/updates" && line.Route != "/v1/apply" {
			t.Errorf("slow-log line of %s carries decodeMicros", line.Route)
		}
		routes[line.Route]++
	}
	if routes["/v1/updates"] != 2 || routes["/v1/apply"] != 1 {
		t.Errorf("slow log lines by route: %v", routes)
	}
}

// TestMalformedBodyNamesTheByte: the 400 of a body neither decoder reads
// says where encoding/json gave up, and of a record that is not an update
// which one.
func TestMalformedBodyNamesTheByte(t *testing.T) {
	_, ts := testService(t)
	loadWorkload(t, ts, 100)
	for _, tc := range []struct{ route, body, want string }{
		{"/v1/updates", `{"now":1,"updates":[{"kind":"insert","x":"east"}]}`, "at byte 47"},
		{"/v1/updates", `{"now":1,"updates":[}`, "at byte 21"},
		{"/v1/updates", `{"now":1,"updates":[`, "at byte 20"},
		{"/v1/apply", `{"updates":[{"kind":"insert"},{"kind":"state"}]}`, "update 1: "},
		{"/v1/load", `{"states":[{"kind":"state","id":"7"}]}`, "at byte 35"},
	} {
		code, reply, _ := post(t, ts, tc.route, tc.body)
		var e errorBody
		if err := json.Unmarshal(reply, &e); err != nil || code != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s %s: status %d, reply %s; want a 400 naming %q", tc.route, tc.body, code, reply, tc.want)
		}
	}
}

// TestPartialWriteReportsAppliedCount: the engine applies the valid prefix
// of a write and stops at the first record it rejects; the 409 says how long
// the prefix was, on both write routes, and the prefix stays applied.
func TestPartialWriteReportsAppliedCount(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, ts, 100)
	rec := func(kind string, id int) string {
		return `{"kind":"` + kind + `","tick":1,"id":` + strconv.Itoa(id) + `,"x":400,"y":400,"ref":1}`
	}
	batch := `[` + rec("insert", 900001) + `,` + rec("insert", 900002) + `,` + rec("delete", 999999) + `,` + rec("insert", 900003) + `]`
	check := func(route, body string, applied, objects int) {
		t.Helper()
		code, reply, _ := post(t, ts, route, body)
		var p struct {
			Error   string
			Applied *int
		}
		if err := json.Unmarshal(reply, &p); err != nil || code != http.StatusConflict {
			t.Fatalf("%s: status %d, reply %s (%v)", route, code, reply, err)
		}
		if p.Applied == nil || *p.Applied != applied || !strings.Contains(p.Error, "unknown object 999999") {
			t.Errorf("%s: reply %s, want applied=%d and the rejected delete named", route, reply, applied)
		}
		if got := svc.Engine().NumObjects(); got != objects {
			t.Errorf("%s: %d objects after the partial write, want %d (the prefix applied, nothing after it)", route, got, objects)
		}
	}
	check("/v1/updates", `{"now":1,"updates":`+batch+`}`, 2, 102)
	batch = `[` + rec("insert", 900004) + `,` + rec("delete", 999999) + `]`
	check("/v1/apply", `{"updates":`+batch+`}`, 1, 103)
	// A tick the engine refuses outright applied nothing.
	code, reply, _ := post(t, ts, "/v1/updates", `{"now":0,"updates":[`+rec("insert", 900005)+`]}`)
	if code != http.StatusConflict || !bytes.Contains(reply, []byte(`"applied":0`)) {
		t.Errorf("backwards tick: status %d, reply %s", code, reply)
	}
}

// zeros is an endless body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedBodyIs413: a write whose declared length is over the bound is
// refused as JSON before a byte of it is read, and the engine never hears of
// it. (An undeclared length is refused by http.MaxBytesReader once the read
// crosses the bound; exercising that means buffering the bound.)
func TestOversizedBodyIs413(t *testing.T) {
	svc, ts := testService(t)
	loadWorkload(t, ts, 100)
	epoch := svc.Engine().Epoch()
	for _, route := range []string{"/v1/updates", "/v1/apply", "/v1/load"} {
		req := httptest.NewRequest(http.MethodPost, route, io.LimitReader(zeros{}, maxBodyBytes+1))
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusRequestEntityTooLarge || e.Error == "" {
			t.Errorf("%s: status %d, reply %s; want a JSON 413", route, rec.Code, rec.Body)
		}
	}
	if got := svc.Engine().Epoch(); got != epoch {
		t.Errorf("epoch moved %d -> %d on refused bodies", epoch, got)
	}
	// The refusals left the service serving.
	small := httptest.NewRequest(http.MethodPost, "/v1/apply", strings.NewReader(`{"updates":[]}`))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, small)
	if rec.Code != http.StatusOK {
		t.Errorf("a small body after the refusals: status %d, reply %s", rec.Code, rec.Body)
	}
}
