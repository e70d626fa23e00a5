package tracestore

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pdr/internal/telemetry"
)

// rec builds a minimal completed record; id doubles as insertion order.
func rec(id uint64, d time.Duration) *Record {
	tr := telemetry.NewTrace("/v1/query")
	tr.End()
	return &Record{
		ID: telemetry.TraceID(id), Route: "/v1/query", Method: "GET",
		URL: "/v1/query?l=30", Status: 200, Duration: d, Root: tr.Root(),
	}
}

func ids(recs []*Record) []telemetry.TraceID {
	out := make([]telemetry.TraceID, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// TestEvictionOrder pins the two-tier retention contract: the ring keeps
// the most recent N, the reservoir keeps the slowest K even after the
// ring has rotated them out, and only records referenced by neither tier
// are dropped.
func TestEvictionOrder(t *testing.T) {
	s := New(4, 2)
	// Two early slow traces, then eight fast ones that rotate them out of
	// the ring. The reservoir must still hold them at the end.
	durations := []time.Duration{100, 90, 1, 2, 3, 4, 5, 6, 7, 8}
	for i, d := range durations {
		s.Add(rec(uint64(i+1), d*time.Millisecond))
	}

	// Ring: the last four adds, newest first.
	got := ids(s.Recent(10))
	want := []telemetry.TraceID{10, 9, 8, 7}
	if len(got) != len(want) {
		t.Fatalf("Recent = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Recent = %v, want %v", got, want)
		}
	}

	// Reservoir: the two slowest ever seen, slowest first, despite both
	// having left the ring long ago.
	got = ids(s.Slowest(10))
	want = []telemetry.TraceID{1, 2}
	if len(got) != len(want) {
		t.Fatalf("Slowest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slowest = %v, want %v", got, want)
		}
	}

	// Resolvable: ring ∪ reservoir; everything else evicted.
	for _, id := range []uint64{1, 2, 7, 8, 9, 10} {
		if s.Get(telemetry.TraceID(id)) == nil {
			t.Errorf("trace %d should be resolvable", id)
		}
	}
	for _, id := range []uint64{3, 4, 5, 6} {
		if s.Get(telemetry.TraceID(id)) != nil {
			t.Errorf("trace %d should have been evicted", id)
		}
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	if s.Evictions() != 4 {
		t.Errorf("Evictions = %d, want 4", s.Evictions())
	}
}

// TestReservoirKeepsSlowestUnderChurn drives a long mixed workload and
// verifies the reservoir converges on exactly the K slowest traces.
func TestReservoirKeepsSlowestUnderChurn(t *testing.T) {
	const k = 8
	s := New(2, k)
	// Durations 1..200ms in a scrambled but deterministic order.
	for i := 1; i <= 200; i++ {
		d := time.Duration((i*73)%200+1) * time.Millisecond
		s.Add(rec(uint64(i), d))
	}
	slow := s.Slowest(k)
	if len(slow) != k {
		t.Fatalf("Slowest returned %d, want %d", len(slow), k)
	}
	for i, r := range slow {
		want := time.Duration(200-i) * time.Millisecond
		if r.Duration != want {
			t.Errorf("slowest[%d] = %v, want %v", i, r.Duration, want)
		}
	}
}

// TestMetricsReadAtScrapeTime registers the store only after it has
// evicted: the exposition reads Len and Evictions, so it reports the
// store's whole history.
func TestMetricsReadAtScrapeTime(t *testing.T) {
	s := New(2, 1)
	for i := 1; i <= 5; i++ {
		s.Add(rec(uint64(i), time.Duration(6-i)*time.Millisecond))
	}
	// Ring holds {4,5}; reservoir holds {1} (slowest, 5ms): 2 evicted.
	if got := s.Evictions(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("len = %d, want 3", got)
	}
	regy := telemetry.NewRegistry()
	s.RegisterMetrics(regy)
	var buf strings.Builder
	if err := regy.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{"pdr_trace_evicted_total 2", "pdr_trace_store_entries 3"} {
		if !strings.Contains(buf.String(), sample+"\n") {
			t.Errorf("exposition lacks %q:\n%s", sample, buf.String())
		}
	}
}

// TestStoreRaceStress is the satellite's -race gate: concurrent Adds
// (query load) against concurrent reads of every accessor, the pattern
// the /debug/traces handlers create in production. Run with -race by
// scripts/check.sh.
func TestStoreRaceStress(t *testing.T) {
	s := New(32, 8)
	const writers, readers, iters = 4, 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := uint64(w*iters + i + 1)
				s.Add(rec(id, time.Duration(id%97)*time.Millisecond))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if rc := s.Get(telemetry.TraceID(uint64(i + 1))); rc != nil {
					_ = rc.Root.CountSpans() // render a retained tree
				}
				for _, rc := range s.Recent(16) {
					_ = rc.Duration
				}
				for _, rc := range s.Slowest(8) {
					_ = rc.Duration
				}
				_ = s.Len()
				_ = s.Evictions()
			}
		}(r)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("store empty after stress")
	}
	if got := len(s.Recent(64)); got != 32 {
		t.Errorf("ring holds %d, want 32", got)
	}
	if got := len(s.Slowest(64)); got != 8 {
		t.Errorf("reservoir holds %d, want 8", got)
	}
}
