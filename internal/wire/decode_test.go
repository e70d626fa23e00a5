package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/motion"
)

// updatesRequest is service.UpdatesRequest, which this package cannot
// import: the documented shape of a /v1/updates body.
type updatesRequest struct {
	Now     motion.Tick `json:"now"`
	Updates []Record    `json:"updates"`
}

// jsonDecodeUpdates is the oracle: a body decoded the way the service
// decoded it before DecodeUpdates existed, and still does when it declines.
func jsonDecodeUpdates(body []byte) (motion.Tick, []motion.Update, error) {
	var req updatesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, nil, err
	}
	ups := make([]motion.Update, len(req.Updates))
	for i, rec := range req.Updates {
		u, err := rec.Update()
		if err != nil {
			return 0, nil, err
		}
		ups[i] = u
	}
	return req.Now, ups, nil
}

// sameRecord compares float bits, so -0 is not 0.
func sameRecord(a, b Record) bool {
	bits := math.Float64bits
	return a.Kind == b.Kind && a.Tick == b.Tick && a.ID == b.ID && a.Ref == b.Ref &&
		bits(a.X) == bits(b.X) && bits(a.Y) == bits(b.Y) && bits(a.VX) == bits(b.VX) && bits(a.VY) == bits(b.VY)
}

func sameUpdate(a, b motion.Update) bool {
	return a.Kind == b.Kind && sameRecord(FromState("", a.State, a.At), FromState("", b.State, b.At))
}

// checkAgainstEncodingJSON is the fuzz property, for a whole body and for the
// same bytes as one workload line: whenever the scanner answers, encoding/json
// accepts the bytes and decodes the same values; so whenever encoding/json
// rejects, the scanner has declined.
func checkAgainstEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	if now, ups, ok := DecodeUpdates(body); ok {
		wantNow, want, err := jsonDecodeUpdates(body)
		if err != nil {
			t.Fatalf("DecodeUpdates accepted %q, encoding/json rejects it: %v", body, err)
		}
		if now != wantNow || len(ups) != len(want) {
			t.Fatalf("%q: now %d and %d updates, encoding/json %d and %d", body, now, len(ups), wantNow, len(want))
		}
		for i := range ups {
			if !sameUpdate(ups[i], want[i]) {
				t.Fatalf("%q: update %d = %+v, encoding/json %+v", body, i, ups[i], want[i])
			}
		}
	}
	if rec, ok := decodeRecord(body); ok {
		var want Record
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("decodeRecord accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !sameRecord(rec, want) {
			t.Fatalf("%q: record %+v, encoding/json %+v", body, rec, want)
		}
	}
}

// genLines is a pdrgen workload: n objects' states, then ticks of updates,
// one marshalled record per line.
func genLines(tb testing.TB, n, ticks int) [][]byte {
	tb.Helper()
	g, err := datagen.New(datagen.DefaultConfig(n))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	write := func(r Record) {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	for _, s := range g.InitialStates() {
		write(FromState(KindState, s, 0))
	}
	for t := 0; t < ticks; t++ {
		ups := g.Advance()
		write(Record{Kind: KindTick, Tick: int64(g.Now())})
		for _, u := range ups {
			kind := KindInsert
			if u.Kind == motion.Delete {
				kind = KindDelete
			}
			write(FromState(kind, u.State, u.At))
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
}

// tickBody assembles a /v1/updates body the way bench/plan's TickBatch.Body
// does: the stream's own insert/delete lines between a header and "]}".
func tickBody(now int64, lines [][]byte) []byte {
	out := strconv.AppendInt([]byte(`{"now":`), now, 10)
	out = append(out, `,"updates":[`...)
	n := 0
	for _, l := range lines {
		if !bytes.Contains(l, []byte(`"kind":"insert"`)) && !bytes.Contains(l, []byte(`"kind":"delete"`)) {
			continue
		}
		if n > 0 {
			out = append(out, ',')
		}
		out = append(out, l...)
		n++
	}
	return append(out, "]}"...)
}

// FuzzDecodeUpdatesMatchesEncodingJSON is the decoder's differential test
// (scripts/check.sh runs it as a fuzz smoke). The seeds are a real tick body,
// the workload lines it is made of, and one of everything the scanner must
// either read exactly as encoding/json does or decline.
func FuzzDecodeUpdatesMatchesEncodingJSON(f *testing.F) {
	lines := genLines(f, 40, 3)
	f.Add(tickBody(3, lines))
	for _, l := range lines[35:50] {
		f.Add(l)
	}
	for _, s := range []string{
		`{"now":4,"updates":[]}`, `{"updates":[],"now":4}`, `{}`, `{"now":-0}`, `{"updates":[]}`,
		`{"updates":[{"ref":2,"vy":-0.25,"vx":0.5,"y":2,"x":1,"id":7,"tick":3,"kind":"delete"}],"now":3}`, // reordered
		" {\t\"now\" : 5 ,\r\n \"updates\" : [ { \"kind\" : \"insert\" , \"tick\" : 5 } ] } \n",           // whitespace
		`{"now":1,"updates":[{"kind":"insert","tick":1,"x":1e2,"y":1E-2,"vx":-1.5e+3,"vy":0.0}]}`,         // exponents
		`{"now":1,"updates":[{"kind":"insert","tick":-0,"x":-0,"y":-0.0,"id":0}]}`,                        // -0
		`{"now":1,"updates":[{"kind":"insert","tick":1,"x":1E400}]}`,                                      // out of range
		`{"now":1,"updates":[{"kind":"insert","tick":1,"x":1e-400}]}`,                                     // underflows to 0
		`{"now":1,"updates":[{"kind":"insert","tick":1,"x":4.9e-324,"y":1.7976931348623157e308}]}`,
		`{"now":1,"updates":[{"kind":"insert","tick":1,"x":0.1000000000000000055511151231257827021181583404541015625}]}`,
		`{"now":01}`, `{"now":+1}`, `{"now":.5}`, `{"now":1.}`, `{"now":1.0}`, `{"now":1e0}`, `{"now":-}`, `{"now":0x1}`, `{"now":1_0}`,
		`{"now":9223372036854775807}`, `{"now":9223372036854775808}`, `{"now":-9223372036854775808}`,
		`{"now":1,"updates":[{"kind":"insert","id":18446744073709551615}]}`,
		`{"now":1,"updates":[{"kind":"insert","id":18446744073709551616}]}`,
		`{"now":1,"updates":[{"kind":"insert","id":-1}]}`, `{"now":1,"updates":[{"kind":"insert","id":-0}]}`,
		`{"now":1,"updates":[{"kind":"insert","id":1.0}]}`, `{"now":1,"updates":[{"kind":"insert","ref":2e0}]}`,
		`{"now":1,"now":2}`, `{"updates":[{"kind":"insert","tick":1}],"updates":[{"kind":"delete"}]}`, // duplicate keys
		`{"now":1,"updates":[{"kind":"insert","x":1,"x":2}]}`, `{"now":1,"updates":[{"kind":"insert","kind":"delete"}]}`,
		`{"now":1,"updates":[{"kind":"ins\u0065rt","tick":1}]}`, `{"now":1,"updates":[{"k\u0069nd":"insert"}]}`, `{"now":1,"updates":[{"kind":"insert\n"}]}`, // escapes
		`{"now":1,"updates":[{"KIND":"insert","Tick":1,"X":2}]}`, `{"NOW":1,"Updates":[]}`, // case-folded keys
		"{\"now\":1,\"updates\":[{\"\u212aind\":\"insert\"}]}", // the Kelvin sign folds to k
		`{"now":1,"updates":[{"kind":"Insert"}]}`, `{"now":1,"updates":[{"kind":"state","tick":0}]}`,
		`{"now":1,"updates":[{"kind":"tick","tick":1}]}`, `{"now":1,"updates":[{"kind":""}]}`, `{"now":1,"updates":[{}]}`,
		`{"now":null}`, `{"updates":null}`, `{"now":1,"updates":[null]}`, `{"now":1,"updates":[{"kind":null}]}`,
		`{"now":1,"updates":[{"kind":"insert","x":null}]}`, `null`, `[]`, `1`, `"now"`, ``, ` `,
		`{"now":1,"updates":[{"kind":"insert","extra":{"a":[1,2,{"b":"}"}]}}]}`, `{"now":1,"other":"{","updates":[]}`, // unknown keys
		`{"now":"1"}`, `{"now":true}`, `{"updates":{}}`, `{"updates":[[]]}`, `{"updates":[1]}`,
		`{"now":1,"updates":[{"kind":"insert","x":"1"}]}`, `{"now":1,"updates":[{"kind":1}]}`,
		`{"now":1,"updates":[]}x`, `{"now":1,"updates":[]}{}`, `{"now":1,"updates":[]} 2`, // trailing garbage
		`{"now":1,"updates":[`, `{"now":1,"updates":[{"kind":"insert"`, `{"now":1,"updates":[{"kind":"ins`, `{"now":`, `{"now"`, `{`, // truncated
		`{"now":1,"updates":[{"kind":"insert"},]}`, `{"now":1,}`, `{,}`, `{"now":1 "updates":[]}`, `{"now":1,"updates":[{"kind":"insert"}{"kind":"delete"}]}`,
		"{\"now\":1,\"updates\":[{\"kind\":\"ins\x00ert\"}]}", "{\"now\":1,\"updates\":[{\"kind\":\"insert\xff\"}]}", "{\"now\":1\x00}",
		"{\"now\":1,\"updates\":[]}\x0c", "\ufeff{\"now\":1}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstEncodingJSON(t, body) })
}

// TestDecodeUpdatesReadsCanonicalBodies pins the other half of the contract,
// which the fuzz property cannot see: the scanner does answer — it does not
// merely decline everything — for what clients actually send.
func TestDecodeUpdatesReadsCanonicalBodies(t *testing.T) {
	lines := genLines(t, 200, 4)
	body := tickBody(4, lines)
	now, ups, ok := DecodeUpdates(body)
	if !ok {
		t.Fatal("DecodeUpdates declined a bench/plan-shaped tick body")
	}
	_, want, err := jsonDecodeUpdates(body)
	if err != nil {
		t.Fatal(err)
	}
	if now != 4 || len(ups) != len(want) || len(ups) == 0 || cap(ups) != len(ups) {
		t.Fatalf("now %d, %d updates (cap %d), want 4 and %d sized exactly", now, len(ups), cap(ups), len(want))
	}
	checkAgainstEncodingJSON(t, body)
	marshalled, err := json.Marshal(updatesRequest{Now: 9, Updates: []Record{{Kind: KindInsert, Tick: 9, ID: 3, X: 1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{marshalled, []byte(`{"updates":[]}`), []byte("{ \"now\" : 2 }\n")} {
		if _, _, ok := DecodeUpdates(b); !ok {
			t.Errorf("DecodeUpdates declined %q", b)
		}
	}
	for _, l := range lines {
		if _, ok := decodeRecord(l); !ok {
			t.Fatalf("decodeRecord declined the pdrgen line %q", l)
		}
	}
	for _, s := range []string{`{"now":1,"updates":[]}x`, `{"NOW":1}`, `{"now":1.0}`, `{"now":null}`, `{"now":1,"now":1}`, `{"updates":[{"kind":"state"}]}`} {
		if _, _, ok := DecodeUpdates([]byte(s)); ok {
			t.Errorf("DecodeUpdates accepted %q, which is encoding/json's to judge", s)
		}
	}
}

// jsonReplay is Replay as it read lines before decodeRecord: encoding/json
// per line.
func jsonReplay(t *testing.T, stream []byte, srv Server) int {
	t.Helper()
	var states []motion.State
	var pending []motion.Update
	var now motion.Tick
	loaded, count := false, 0
	flush := func() {
		if !loaded {
			if err := srv.Load(states); err != nil {
				t.Fatal(err)
			}
			loaded = true
		}
		if err := srv.Tick(now, pending); err != nil {
			t.Fatal(err)
		}
		pending = pending[:0]
	}
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		count++
		switch rec.Kind {
		case KindState:
			states = append(states, rec.State())
		case KindTick:
			flush()
			now = motion.Tick(rec.Tick)
		default:
			u, err := rec.Update()
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, u)
		}
	}
	flush()
	return count
}

// TestReplayMatchesEncodingJSONReplay replays a datagen stream — with a few
// lines only encoding/json reads mixed in — through Replay and through the
// per-line encoding/json loop it replaced, and requires the two servers to
// have been driven identically.
func TestReplayMatchesEncodingJSONReplay(t *testing.T) {
	lines := genLines(t, 300, 6)
	// Lines the scanner declines and the fallback must read to the same effect.
	lines[3] = bytes.Replace(lines[3], []byte(`"kind"`), []byte(`"KIND"`), 1)
	lines[7] = append([]byte(`{"note":"ignored",`), lines[7][1:]...)
	lines[len(lines)-1] = bytes.Replace(lines[len(lines)-1], []byte(`"kind":"`), []byte(`"kind":"\u0069nsert","kind":"`), 1)
	stream := bytes.Join(lines, []byte("\n"))
	var got, want mockServer
	n, err := Replay(bytes.NewReader(stream), &got)
	if err != nil {
		t.Fatal(err)
	}
	if wantN := jsonReplay(t, stream, &want); n != wantN || n != len(lines) {
		t.Fatalf("Replay processed %d records, the encoding/json replay %d of %d lines", n, wantN, len(lines))
	}
	if len(got.loaded) != 300 || len(got.loaded) != len(want.loaded) || len(got.ticks) != len(want.ticks) {
		t.Fatalf("loaded %d states over %d ticks, want %d over %d", len(got.loaded), len(got.ticks), len(want.loaded), len(want.ticks))
	}
	for i := range want.loaded {
		if !sameUpdate(motion.NewInsert(got.loaded[i]), motion.NewInsert(want.loaded[i])) {
			t.Fatalf("state %d = %+v, want %+v", i, got.loaded[i], want.loaded[i])
		}
	}
	for i := range want.ticks {
		if got.ticks[i] != want.ticks[i] || len(got.updates[i]) != len(want.updates[i]) {
			t.Fatalf("tick %d: now %d with %d updates, want %d with %d", i, got.ticks[i], len(got.updates[i]), want.ticks[i], len(want.updates[i]))
		}
		for j := range want.updates[i] {
			if !sameUpdate(got.updates[i][j], want.updates[i][j]) {
				t.Fatalf("tick %d update %d = %+v, want %+v", i, j, got.updates[i][j], want.updates[i][j])
			}
		}
	}
}

// TestReplayReportsWhatEncodingJSONReports: a line neither decoder reads
// fails with encoding/json's error, as before.
func TestReplayReportsWhatEncodingJSONReports(t *testing.T) {
	_, err := Replay(strings.NewReader(`{"kind":"state","tick":0}`+"\n"+`{"kind":"state","x":"east"}`), &mockServer{})
	if err == nil || !strings.Contains(err.Error(), "wire: line 2: json: cannot unmarshal string") {
		t.Fatalf("Replay error = %v, want line 2's json type error", err)
	}
}

// benchTickBody is one update-stream tick as bench/ sends it: 1,030 records.
func benchTickBody(tb testing.TB) []byte {
	lines := genLines(tb, 20000, 1)
	var ups [][]byte
	for _, l := range lines[20001:] {
		if len(ups) < 1030 {
			ups = append(ups, l)
		}
	}
	if len(ups) != 1030 {
		tb.Fatalf("the stream's first tick holds %d updates, the benchmark needs 1030", len(ups))
	}
	return tickBody(1, ups)
}

// decodeOp is BenchmarkDecodeUpdates' call: the scanner reads one tick's
// body.
func decodeOp(tb testing.TB, body []byte) func() {
	return func() {
		if _, ups, ok := DecodeUpdates(body); !ok || len(ups) != 1030 {
			tb.Fatal("declined")
		}
	}
}

// BenchmarkDecodeUpdates is the decode share of one /v1/updates tick
// (TestDecodeUpdatesAllocs pins it at 1 allocation: the update slice);
// BenchmarkDecodeUpdatesEncodingJSON is the fallback on the same body.
func BenchmarkDecodeUpdates(b *testing.B) {
	body := benchTickBody(b)
	op := decodeOp(b, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestDecodeUpdatesAllocs pins BenchmarkDecodeUpdates at one allocation a
// call: a tick's 1,030 records are scanned off the request's bytes into one
// exactly-sized update slice, with no per-record or per-number allocation.
func TestDecodeUpdatesAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, decodeOp(t, benchTickBody(t))); n > 1 {
		t.Errorf("BenchmarkDecodeUpdates: %v allocs/op, pinned at 1", n)
	}
}

func BenchmarkDecodeUpdatesEncodingJSON(b *testing.B) {
	body := benchTickBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ups, err := jsonDecodeUpdates(body); err != nil || len(ups) != 1030 {
			b.Fatal(err)
		}
	}
}
