package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer's
// public function. IDs are 1-based positions in the tracer; Parent 0 marks
// the root span of an operation.
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the probe ends. A
// nil tracer records nothing, which is how the cost of recording itself is
// measured (trace.overhead_ratio).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int, class, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Op: op, Class: class, Name: name, Parent: parent,
		StartNS: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// selfTimes returns each span name's summed self time within operation op, in
// microseconds: a span's duration minus the part its children cover. An
// operation's spans are the tracer's tail from its first span on.
func (t *tracer) selfTimes(op int) map[string]float64 {
	first := len(t.spans)
	for first > 0 && t.spans[first-1].Op == op {
		first--
	}
	child := map[int]int64{}
	for _, s := range t.spans[first:] {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string]float64{}
	for _, s := range t.spans[first:] {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e3
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
