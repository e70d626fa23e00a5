package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"pdr/internal/stopwatch"
)

// TraceID identifies one traced request, unique within the process. The
// zero value means "no trace".
type TraceID uint64

// traceSeq generates process-unique trace IDs. It is seeded from
// crypto/rand at init so IDs from different process runs almost never
// collide (restarted servers keep old log lines resolvable as "not ours"),
// then incremented atomically — allocation is one atomic add, no locking.
var traceSeq atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		traceSeq.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

func newTraceID() TraceID {
	id := TraceID(traceSeq.Add(1))
	for id == 0 { // zero is reserved for "no trace"
		id = TraceID(traceSeq.Add(1))
	}
	return id
}

// String renders the ID as 16 lowercase hex digits.
func (id TraceID) String() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	v := uint64(id)
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the 16-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("telemetry: trace id %q is not 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: trace id %q is not 16 hex digits", s)
	}
	return TraceID(v), nil
}

// Attr is one key/value annotation on a span (cache outcome, fan-out
// width, candidate counts, ...). Values are pre-rendered strings so
// rendering a stored trace does no per-type dispatch.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// DefaultSpanBudget bounds the number of spans one trace may allocate.
// A pathological query (an interval fanning out into thousands of
// refinement windows) degrades to a truncated tree instead of an
// unbounded allocation; the budget is shared across the whole tree.
const DefaultSpanBudget = 8192

// spanShared is the per-trace state every span of one tree shares: the
// trace identity, the common time base offsets are measured against, and
// the remaining span allocation budget.
type spanShared struct {
	id     TraceID
	base   stopwatch.Stopwatch
	budget atomic.Int64
}

// Span is one timed node of a trace tree. A span belongs to one request;
// the tree is built single-threaded except for Fork slots, which parallel
// workers fill one-per-worker (each worker touches only its own slot, and
// the pool's join gives the parent a happens-before edge over all of
// them). Every method is a no-op on a nil receiver, so call sites need no
// guards when tracing is off — disabled tracing allocates nothing.
type Span struct {
	Name string
	// Start is the span's opening instant as an offset from the trace
	// start; Duration is its extent. Offsets keep the tree free of
	// absolute timestamps (the store adds one wall-clock anchor per
	// trace).
	Start    time.Duration
	Duration time.Duration
	Attrs    []Attr
	Children []*Span

	shared *spanShared
	open   bool
}

// Trace is one request's span tree: a process-unique ID plus the root
// span. A nil *Trace is a no-op on every method.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span is named name and already open.
func NewTrace(name string) *Trace {
	return NewTraceWithBudget(name, DefaultSpanBudget)
}

// NewTraceWithBudget starts a trace with an explicit span budget
// (NewTrace uses DefaultSpanBudget). maxSpans counts every span in the
// tree including the root; maxSpans <= 0 yields a root-only trace.
func NewTraceWithBudget(name string, maxSpans int) *Trace {
	sh := &spanShared{id: newTraceID(), base: stopwatch.Start()}
	sh.budget.Store(int64(maxSpans) - 1) // the root consumes one
	return &Trace{root: &Span{Name: name, shared: sh, open: true}}
}

// ID returns the trace's process-unique identity (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.root.shared.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End closes the root span; idempotent.
func (t *Trace) End() { t.Root().End() }

// Duration returns the root span's recorded duration.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.root.Duration
}

// TraceID returns the identity of the trace this span belongs to.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.shared.id
}

// newSpan allocates a child-to-be against the shared budget; nil when the
// budget is exhausted (the tree silently truncates).
func (s *Span) newSpan(name string) *Span {
	if s.shared.budget.Add(-1) < 0 {
		return nil
	}
	return &Span{Name: name, shared: s.shared}
}

// Child opens a new child span now and returns it. The caller closes it
// with End before opening the next sibling (sequential use; for parallel
// fan-outs use Fork).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.newSpan(name)
	if c == nil {
		return nil
	}
	c.Begin()
	s.Children = append(s.Children, c)
	return c
}

// Begin marks the span's opening instant. Child calls it implicitly; Fork
// slots are created unopened so each worker stamps its own start.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	s.Start = s.shared.base.Elapsed()
	s.open = true
}

// End closes the span; idempotent, and a no-op on a never-begun span.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	s.Duration = s.shared.base.Elapsed() - s.Start
	s.open = false
}

// SetAttr annotates the span. Attribute keys repeat freely; renderers see
// them in insertion order.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. The rendering
// happens after the nil check, so untraced calls do no formatting work.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetAttrBool annotates the span with a boolean value.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatBool(v)})
}

// Spans is a fixed fan-out of sibling spans, indexed by worker item. A nil
// Spans hands every worker a nil span, so the fan-out sites need no
// tracing guards.
type Spans []*Span

// At returns slot i, nil when out of range (or on a nil Spans).
func (ss Spans) At(i int) *Span {
	if i < 0 || i >= len(ss) {
		return nil
	}
	return ss[i]
}

// Fork pre-allocates n child slots, all named name, appended to the tree
// in index order before any worker runs — so the child order is
// deterministic no matter how the workers interleave. Slots are created
// unopened; each worker brackets its slot with Begin/End (or uses
// parallel.Pool.ForEachSpan, which does it for them). If the span budget
// runs out mid-fork the remaining slots are nil and those workers go
// untraced.
func (s *Span) Fork(name string, n int) Spans {
	if s == nil || n <= 0 {
		return nil
	}
	slots := make(Spans, n)
	created := 0
	for i := range slots {
		c := s.newSpan(name)
		if c == nil {
			break
		}
		slots[i] = c
		created++
	}
	s.Children = append(s.Children, slots[:created]...)
	return slots
}

// CountSpans returns the number of spans in the subtree rooted at s.
func (s *Span) CountSpans() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children {
		n += c.CountSpans()
	}
	return n
}
