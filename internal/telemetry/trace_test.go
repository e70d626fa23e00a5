package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("/v1/query")
	root := tr.Root()
	if root == nil || root.Name != "/v1/query" {
		t.Fatalf("root = %+v, want open span named /v1/query", root)
	}
	filter := root.Child("filter")
	filter.SetAttrInt("accepted", 12)
	time.Sleep(time.Millisecond)
	filter.End()
	refine := root.Child("refine")
	refine.SetAttrBool("cached", false)
	refine.End()
	tr.End()
	tr.End() // idempotent

	if tr.ID() == 0 {
		t.Error("trace has zero ID")
	}
	if root.TraceID() != tr.ID() {
		t.Errorf("span trace id %v != trace id %v", root.TraceID(), tr.ID())
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	if got := root.Children[0].Name + "," + root.Children[1].Name; got != "filter,refine" {
		t.Errorf("children = %s, want filter,refine", got)
	}
	if filter.Duration < time.Millisecond {
		t.Errorf("filter duration %v, want >= 1ms", filter.Duration)
	}
	if tr.Duration() < filter.Duration {
		t.Errorf("root duration %v < filter duration %v", tr.Duration(), filter.Duration)
	}
	if refine.Start < filter.Start+filter.Duration {
		t.Errorf("refine starts at %v, before filter ended at %v",
			refine.Start, filter.Start+filter.Duration)
	}
	if got := len(filter.Attrs); got != 1 || filter.Attrs[0] != (Attr{"accepted", "12"}) {
		t.Errorf("filter attrs = %+v, want [{accepted 12}]", filter.Attrs)
	}
	if root.CountSpans() != 3 {
		t.Errorf("CountSpans = %d, want 3", root.CountSpans())
	}
}

func TestNilTraceAndSpanAreNoops(t *testing.T) {
	var tr *Trace
	tr.End()
	if tr.ID() != 0 || tr.Root() != nil || tr.Duration() != 0 {
		t.Error("nil trace leaked state")
	}
	var sp *Span
	sp.Begin()
	sp.SetAttr("k", "v")
	sp.SetAttrInt("k", 1)
	sp.SetAttrBool("k", true)
	sp.End()
	if sp.Child("x") != nil {
		t.Error("nil span produced a child")
	}
	if sp.Fork("x", 4) != nil {
		t.Error("nil span produced fork slots")
	}
	if sp.CountSpans() != 0 || sp.TraceID() != 0 {
		t.Error("nil span leaked state")
	}
	var ss Spans
	if ss.At(0) != nil || ss.At(-1) != nil {
		t.Error("nil Spans returned a span")
	}
}

// TestNilSpanZeroAllocs is the satellite's hot-path guarantee: with
// tracing disabled (nil spans everywhere) the instrumented query path
// must allocate nothing for tracing.
func TestNilSpanZeroAllocs(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(100, func() {
		c := sp.Child("filter")
		c.SetAttrInt("accepted", 12)
		c.End()
		slots := sp.Fork("window", 8)
		s := slots.At(3)
		s.Begin()
		s.SetAttrInt("retrieved", 7)
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocated %.1f times per run, want 0", allocs)
	}
}

func TestTraceIDStringRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdeadbeef, ^TraceID(0)} {
		s := id.String()
		if len(s) != 16 || strings.ToLower(s) != s {
			t.Errorf("String(%d) = %q, want 16 lowercase hex digits", id, s)
		}
		got, err := ParseTraceID(s)
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %v, %v, want %v", s, got, err, id)
		}
	}
	for _, bad := range []string{"", "xyz", "123", strings.Repeat("g", 16), strings.Repeat("0", 17)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceIDsAreUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTrace("t").ID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero trace id %v at iteration %d", id, i)
		}
		seen[id] = true
	}
}

func TestForkDeterministicOrder(t *testing.T) {
	const n = 17
	tr := NewTrace("fanout")
	slots := tr.Root().Fork("window", n)
	if len(slots) != n {
		t.Fatalf("fork returned %d slots, want %d", len(slots), n)
	}
	// Workers fill their slots in arbitrary interleaving; the child order
	// must stay the pre-allocated index order.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := slots.At(i)
			sp.Begin()
			sp.SetAttrInt("i", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.End()
	kids := tr.Root().Children
	if len(kids) != n {
		t.Fatalf("root has %d children, want %d", len(kids), n)
	}
	for i, c := range kids {
		if c != slots[i] {
			t.Fatalf("child %d is not slot %d", i, i)
		}
		if got := c.Attrs[0].Value; got != strconv.Itoa(i) {
			t.Errorf("child %d carries attr i=%s", i, got)
		}
	}
}

func TestSpanBudgetTruncates(t *testing.T) {
	tr := NewTraceWithBudget("small", 4) // root + 3 children
	root := tr.Root()
	if c := root.Child("a"); c == nil {
		t.Fatal("first child denied under budget 4")
	}
	slots := root.Fork("w", 5)
	if len(slots) != 5 {
		t.Fatalf("fork returned %d slots, want 5 (nil-padded)", len(slots))
	}
	created := 0
	for _, s := range slots {
		if s != nil {
			created++
		}
	}
	if created != 2 {
		t.Errorf("budget allowed %d fork slots, want 2", created)
	}
	if root.Child("z") != nil {
		t.Error("child allocated past the budget")
	}
	if got := root.CountSpans(); got != 4 {
		t.Errorf("tree holds %d spans, want 4", got)
	}
	// Nil tail slots stay safe to use.
	s := slots.At(4)
	s.Begin()
	s.End()
}
