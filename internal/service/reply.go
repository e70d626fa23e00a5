package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// replyBufs pools reply bodies. Every JSON reply is encoded whole into one
// of these before the connection is touched, handed to the middleware's
// recorder by ownership (sendReply) and returned after its one socket write,
// so a steady stream of 780 KB exact answers reuses one buffer instead of
// growing, copying and discarding three per request.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeFailedBody is the reply when a response cannot be encoded (a
// non-finite float is the one way): a clean 500, never a truncated 200.
const encodeFailedBody = `{"error":"response encoding failed"}` + "\n"

// sendReply sends a fully encoded JSON body and takes ownership of its
// buffer, which must come from replyBufs. Behind the middleware the recorder
// holds the buffer itself — no copy — until the response has left; a bare
// ResponseWriter (the raw debug routes, a direct handler test) is written at
// once. Either way the buffer goes back to the pool after that write.
func sendReply(w http.ResponseWriter, code int, pb *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*pb)))
	if rec, ok := w.(*statusRecorder); ok {
		rec.status, rec.body, rec.pooled = code, *pb, pb
		return
	}
	w.WriteHeader(code)
	// lint:ignore errchecklite the reply is fully buffered; a failed write
	// means the client hung up and there is nobody left to tell.
	w.Write(*pb)
	replyBufs.Put(pb)
}

// writeJSONStatus encodes v into a buffer before touching the connection,
// so an encoding failure yields a clean 500 instead of a truncated 200
// body, and the status line is never written twice.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	pb := replyBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*pb)[:0])
	err := json.NewEncoder(buf).Encode(v)
	sendEncoded(w, code, pb, buf.Bytes(), err)
}

// sendEncoded sends body, which was encoded into the pooled buffer pb — or,
// when encoding failed, the clean 500 in its place.
func sendEncoded(w http.ResponseWriter, code int, pb *[]byte, body []byte, err error) {
	if err != nil {
		body = append(body[:0], encodeFailedBody...)
		code = http.StatusInternalServerError
	}
	*pb = body
	sendReply(w, code, pb)
}

// queryAnswer is an engine result with the resolved query it answers: what
// the /v1/query and /v1/past replies are encoded from.
type queryAnswer struct {
	method string
	q      core.Query
	until  *motion.Tick // interval end; nil for a snapshot
	res    *core.Result
}

// writeQueryReply encodes a query answer (appendQueryReply) and sends it.
// No lock is held: the result's region is private to the request (computed
// fresh, or a cache clone), so formatting ~33k floats holds up neither a
// tick nor another reader.
func writeQueryReply(w http.ResponseWriter, r *http.Request, a queryAnswer, outline bool) {
	sp := requestSpan(r).Child("encode")
	var rings []geom.Ring
	if outline {
		rings = a.res.Region.Outline()
	}
	pb := replyBufs.Get().(*[]byte)
	body, err := appendQueryReplySplit((*pb)[:0], a, rings)
	sp.SetAttrInt("rects", int64(len(a.res.Region)))
	sp.SetAttrInt("bytes", int64(len(body)))
	sp.End()
	sendEncoded(w, http.StatusOK, pb, body, err)
}

// errNonFinite is appendFloat's refusal of NaN and ±Inf, which JSON cannot
// represent (encoding/json's UnsupportedValueError).
var errNonFinite = errors.New("service: non-finite float in a JSON reply")

// appendQueryReply appends the JSON encoding of a query answer: field for
// field and byte for byte what encoding/json writes for the QueryResponse
// holding the same answer, trailing newline included (pinned by
// TestQueryReplyMatchesEncodingJSON). It walks the region once and builds no
// intermediate value; QueryResponse stays the documented, decodable shape.
func appendQueryReply(b []byte, a queryAnswer, rings []geom.Ring) ([]byte, error) {
	e := replyEncoder{b: b}
	e.head(a)
	e.rects(a.res.Region, false)
	e.tail(a, rings)
	return e.b, e.err
}

// splitRects is the answer size from which appendQueryReplySplit formats the
// rectangles on two goroutines: a few hundred microseconds of formatting,
// well above the cost of starting one.
const splitRects = 1024

// appendQueryReplySplit is appendQueryReply, byte for byte, with a large
// answer's rectangles formatted half on the calling goroutine and half on
// another, into a second pooled buffer appended after the first half: the
// shortest-decimal formatting of ~33k floats is the reply's serial tail.
func appendQueryReplySplit(b []byte, a queryAnswer, rings []geom.Ring) ([]byte, error) {
	rects := a.res.Region
	if len(rects) < splitRects || runtime.GOMAXPROCS(0) < 2 {
		return appendQueryReply(b, a, rings)
	}
	h := len(rects) / 2
	pb := replyBufs.Get().(*[]byte)
	second := replyEncoder{b: (*pb)[:0]}
	done := make(chan struct{})
	go func() {
		second.rects(rects[h:], true)
		close(done)
	}()
	e := replyEncoder{b: b}
	e.head(a)
	e.rects(rects[:h], false)
	<-done
	e.b = append(e.b, second.b...)
	if e.err == nil {
		e.err = second.err
	}
	*pb = second.b
	replyBufs.Put(pb)
	e.tail(a, rings)
	return e.b, e.err
}

// head appends the reply up to its rectangles.
func (e *replyEncoder) head(a queryAnswer) {
	e.raw(`{"method":`)
	e.b = appendString(e.b, a.method)
	e.num(`,"at":`, int64(a.q.At))
	if a.until != nil {
		e.num(`,"until":`, int64(*a.until))
	}
	e.float(`,"rho":`, a.q.Rho)
	e.float(`,"l":`, a.q.L)
	e.raw(`,"rects":[`)
}

// rects appends rectangles as JSON objects, comma-separated; more says they
// continue a list that already has a member.
func (e *replyEncoder) rects(rects []geom.Rect, more bool) {
	for i, rect := range rects {
		if i > 0 || more {
			e.raw(`,`)
		}
		e.float(`{"minX":`, rect.MinX)
		e.float(`,"minY":`, rect.MinY)
		e.float(`,"maxX":`, rect.MaxX)
		e.float(`,"maxY":`, rect.MaxY)
		e.raw(`}`)
	}
}

// tail appends the reply after its rectangles.
func (e *replyEncoder) tail(a queryAnswer, rings []geom.Ring) {
	res := a.res
	e.raw(`]`)
	e.float(`,"area":`, res.Area)
	if len(rings) > 0 {
		e.raw(`,"rings":[`)
		for i, ring := range rings {
			if i > 0 {
				e.raw(`,`)
			}
			e.raw(`[`)
			for j, p := range ring {
				if j > 0 {
					e.raw(`,`)
				}
				e.float(`{"x":`, p.X)
				e.float(`,"y":`, p.Y)
				e.raw(`}`)
			}
			e.raw(`]`)
		}
		e.raw(`]`)
	}
	e.num(`,"cpuMicros":`, res.CPU.Microseconds())
	e.num(`,"wallMicros":`, res.Wall.Microseconds())
	e.num(`,"ios":`, res.IOs)
	e.num(`,"totalMicros":`, res.Total().Microseconds())
	if res.Cached {
		e.raw(`,"cached":true`)
	}
	if us := res.CachedCPU.Microseconds(); us != 0 {
		e.num(`,"cachedCpuMicros":`, us)
	}
	e.raw("}\n")
}

// replyEncoder appends JSON members to b, remembering the first value it
// could not encode.
type replyEncoder struct {
	b   []byte
	err error
}

func (e *replyEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *replyEncoder) num(key string, n int64) {
	e.b = strconv.AppendInt(append(e.b, key...), n, 10)
}

func (e *replyEncoder) float(key string, f float64) {
	var err error
	if e.b, err = appendFloat(append(e.b, key...), f); err != nil && e.err == nil {
		e.err = err
	}
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in 'f' form except below 1e-6 and from 1e21,
// where it is 'e' form with a two-digit exponent's leading zero dropped
// (e-09 becomes e-9). FuzzAppendFloatMatchesEncodingJSON holds it to
// json.Marshal over every finite input.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errNonFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Method names are short ASCII
// constants that need no escaping; anything else takes encoding/json's own
// escaper, so the output is its output whatever the input.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always marshals.
			quoted, _ := json.Marshal(s)
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
