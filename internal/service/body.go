package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"pdr/internal/motion"
	"pdr/internal/stopwatch"
	"pdr/internal/wire"
)

// maxBodyBytes bounds the body of a write request (/v1/load, /v1/updates,
// /v1/apply), which is read whole before it is decoded. A 20,000-state load
// is 2.8 MB and a 1,030-record tick 143 KB.
const maxBodyBytes = 64 << 20

// bodyBufs pools request bodies the way replyBufs pools replies: a steady
// update stream reads every tick into the same buffer.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads the request body whole into a pooled buffer, which the
// caller returns to bodyBufs. A body over maxBodyBytes fails with an
// *http.MaxBytesError — at once when its declared length says so, else when
// the read crosses the bound — before any of it is decoded.
func readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// MaxBytesReader closes the connection of an oversized request through
	// the server's own ResponseWriter, not a wrapper of it.
	if rec, ok := w.(*statusRecorder); ok {
		w = rec.ResponseWriter
	}
	pb := bodyBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*pb)[:0])
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		bodyBufs.Put(pb) // as it came: what the failed read grew is dropped
		return nil, err
	}
	*pb = buf.Bytes()
	return pb, nil
}

// bodyReadError answers a request whose body readBody could not read: 413
// when it is over the bound, else 400.
func bodyReadError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "read request body: %v", err)
}

// decodeJSON decodes a request body with encoding/json — the first JSON
// value of the stream, as json.Decoder reads a request — and names the byte
// a malformed body failed at.
func decodeJSON(body []byte, v any) error {
	err := json.NewDecoder(bytes.NewReader(body)).Decode(v)
	if err == nil {
		return nil
	}
	at := int64(len(body)) // a truncated body fails where it ends
	var syntax *json.SyntaxError
	var mistyped *json.UnmarshalTypeError
	if errors.As(err, &syntax) {
		at = syntax.Offset
	} else if errors.As(err, &mistyped) {
		at = mistyped.Offset
	}
	return fmt.Errorf("bad request body at byte %d: %w", at, err)
}

// decodeUpdates reads and decodes the body of /v1/updates or /v1/apply:
// wire.DecodeUpdates reads the canonical shape, and what it declines goes —
// the same bytes — through fallback, the route's encoding/json decode into
// its documented request type, exactly as before the scanner existed. One
// "decode" span on the request root covers both (docs/OBSERVABILITY.md). A
// body neither reads is answered 400 here; ok is then false.
func decodeUpdates(w http.ResponseWriter, r *http.Request, fallback func(body []byte) (motion.Tick, []wire.Record, error)) (now motion.Tick, ups []motion.Update, ok bool) {
	pb, err := readBody(w, r)
	if err != nil {
		bodyReadError(w, err)
		return 0, nil, false
	}
	defer bodyBufs.Put(pb) // updates hold no reference into the body
	sp := requestSpan(r).Child("decode")
	sw := stopwatch.Start()
	now, ups, fast := wire.DecodeUpdates(*pb)
	var fellBack int64
	if !fast {
		fellBack = 1
		var recs []wire.Record
		if now, recs, err = fallback(*pb); err == nil {
			ups = make([]motion.Update, len(recs))
			for i, rec := range recs {
				if ups[i], err = rec.Update(); err != nil {
					err = fmt.Errorf("update %d: %w", i, err)
					break
				}
			}
		}
	}
	sp.SetAttrInt("records", int64(len(ups)))
	sp.SetAttrInt("bytes", int64(len(*pb)))
	sp.SetAttrInt("fallback", fellBack)
	sp.End()
	if d := requestDetail(r); d != nil {
		d.decode = sw.Elapsed()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return 0, nil, false
	}
	return now, ups, true
}
