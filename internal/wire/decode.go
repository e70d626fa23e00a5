package wire

import (
	"bytes"
	"strconv"

	"pdr/internal/motion"
)

// The update stream is decoded twice over: by the scanner in this file, which
// reads the canonical shape of a record — what Writer, pdrgen and every
// client marshalling a Record produce — straight off the bytes, and, at the
// first byte the scanner does not expect, by encoding/json on the same bytes.
// The scanner only ever *declines*: it accepts a strict subset of what
// encoding/json accepts into Record (exact lower-case keys, each at most
// once, no escapes, no null, JSON's number grammar, integers in the integer
// fields) and converts every number with the strconv call encoding/json
// makes, so where it answers its answer is encoding/json's, float bits
// included, and everything else — the rest of the accepted language, every
// error and its text — is encoding/json's by construction.
// FuzzDecodeUpdatesMatchesEncodingJSON holds it to that.

// DecodeUpdates decodes the body of POST /v1/updates or /v1/apply,
//
//	{"now": N, "updates": [{"kind": "insert"|"delete", ...}, ...]}
//
// (either member optional, in either order), into the clock value and the
// update stream. ok is false when the body is anything but that canonical
// shape — malformed or merely unusual; the caller then decodes the same
// bytes with encoding/json, which accepts or rejects them as it always has.
// The updates do not alias body.
//
// Its loop runs once per record of a tick's body.
func DecodeUpdates(body []byte) (now motion.Tick, updates []motion.Update, ok bool) {
	s := scanner{b: body}
	if !s.eat('{') {
		return 0, nil, false
	}
	var seenNow, seenUpdates bool
	for more := !s.eat('}'); more; {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return 0, nil, false
		}
		switch string(key) {
		case "now":
			n, ok := s.int64()
			if !ok || seenNow {
				return 0, nil, false
			}
			now, seenNow = motion.Tick(n), true
		case "updates":
			if seenUpdates || !s.eat('[') {
				return 0, nil, false
			}
			seenUpdates = true
			// Every '{' left opens a record (the scanner accepts no other), so
			// the count sizes the stream exactly: one allocation.
			updates = make([]motion.Update, 0, bytes.Count(s.b[s.i:], []byte{'{'}))
			for more := !s.eat(']'); more; {
				rec, ok := s.record()
				if !ok || (rec.Kind != KindInsert && rec.Kind != KindDelete) {
					return 0, nil, false
				}
				// A record of either kind converts without error.
				u, _ := rec.Update()
				updates = append(updates, u)
				if more = s.eat(','); !more && !s.eat(']') {
					return 0, nil, false
				}
			}
		default:
			return 0, nil, false
		}
		if more = s.eat(','); !more && !s.eat('}') {
			return 0, nil, false
		}
	}
	if !s.atEnd() {
		return 0, nil, false
	}
	return now, updates, true
}

// decodeRecord decodes one workload line holding a canonical record of any
// kind; for anything else (see DecodeUpdates) it returns the zero Record,
// ready for encoding/json to decode into, and false.
func decodeRecord(line []byte) (Record, bool) {
	s := scanner{b: line}
	if rec, ok := s.record(); ok && s.atEnd() {
		return rec, true
	}
	return Record{}, false
}

// scanner is a cursor over a JSON text.
type scanner struct {
	b []byte
	i int
}

// skip moves past whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace is left.
func (s *scanner) atEnd() bool {
	s.skip()
	return s.i == len(s.b)
}

// str consumes a string that holds no escape and returns the bytes between
// its quotes. Callers only compare the result with ASCII names, so bytes a
// JSON string may not hold raw need no check here: they match nothing.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '"':
			s.i++
			return s.b[start : s.i-1], true
		case '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes a literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv parses (no leading '+' or '.', no leading zeros, no hex, inf
// or underscores). Whatever follows the longest match is the caller's next
// token: "01" leaves a '1' no caller expects.
func (s *scanner) number() ([]byte, bool) {
	s.skip()
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// int64, uint64 and float64 consume a number and convert it as encoding/json
// converts one bound for a field of that type; a literal the conversion
// refuses (a fraction or exponent in an integer field, a sign in an unsigned
// one, a value out of range) is declined.

func (s *scanner) int64() (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
}

func (s *scanner) uint64() (uint64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	return n, err == nil
}

func (s *scanner) float64() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// record consumes one record object. Its Kind is one of the four Kind
// constants (never a copy of the input) or, when the member is absent, empty.
func (s *scanner) record() (Record, bool) {
	var rec Record
	if !s.eat('{') {
		return rec, false
	}
	var seen uint // one bit per member: a repeated key is declined
	for more := !s.eat('}'); more; {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return rec, false
		}
		var bit uint
		switch string(key) {
		case "kind":
			bit = 1 << 0
			kind, ok := s.str()
			if !ok {
				return rec, false
			}
			switch string(kind) {
			case KindState:
				rec.Kind = KindState
			case KindTick:
				rec.Kind = KindTick
			case KindInsert:
				rec.Kind = KindInsert
			case KindDelete:
				rec.Kind = KindDelete
			default:
				return rec, false
			}
		case "tick":
			bit = 1 << 1
			rec.Tick, ok = s.int64()
		case "id":
			bit = 1 << 2
			rec.ID, ok = s.uint64()
		case "x":
			bit = 1 << 3
			rec.X, ok = s.float64()
		case "y":
			bit = 1 << 4
			rec.Y, ok = s.float64()
		case "vx":
			bit = 1 << 5
			rec.VX, ok = s.float64()
		case "vy":
			bit = 1 << 6
			rec.VY, ok = s.float64()
		case "ref":
			bit = 1 << 7
			rec.Ref, ok = s.int64()
		default:
			return rec, false
		}
		if !ok || seen&bit != 0 {
			return rec, false
		}
		seen |= bit
		if more = s.eat(','); !more && !s.eat('}') {
			return rec, false
		}
	}
	return rec, true
}
