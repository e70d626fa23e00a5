package telemetry

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pdr_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("pdr_test_gauge", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestRegistrationDedupes(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pdr_dedupe_total", "h", L("method", "FR"))
	b := r.Counter("pdr_dedupe_total", "h", L("method", "FR"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	other := r.Counter("pdr_dedupe_total", "h", L("method", "PA"))
	if a == other {
		t.Error("distinct labels returned the same counter")
	}
}

func TestBadRegistrationsPanic(t *testing.T) {
	cases := map[string]func(r *Registry){
		"uppercase name":  func(r *Registry) { r.Counter("pdr_BadName", "h") },
		"missing prefix":  func(r *Registry) { r.Counter("queries_total", "h") },
		"double underbar": func(r *Registry) { r.Counter("pdr__x", "h") },
		"bare prefix":     func(r *Registry) { r.Counter("pdr_", "h") },
		"bad label key":   func(r *Registry) { r.Counter("pdr_ok_total", "h", L("Bad-Key", "v")) },
		"kind collision": func(r *Registry) {
			r.Counter("pdr_kind_total", "h")
			r.Gauge("pdr_kind_total", "h")
		},
		"negative counter add": func(r *Registry) { r.Counter("pdr_neg_total", "h").Add(-1) },
		"unordered buckets":    func(r *Registry) { r.Histogram("pdr_h_seconds", "h", []float64{1, 1}) },
		"bounds collision": func(r *Registry) {
			r.Histogram("pdr_b_seconds", "h", []float64{1, 2})
			r.Histogram("pdr_b_seconds", "h", []float64{1, 3})
		},
		"default-bounds collision": func(r *Registry) {
			r.Histogram("pdr_d_seconds", "h", nil)
			r.Histogram("pdr_d_seconds", "h", []float64{1, 2})
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket, and the cumulative counts roll
// up into +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pdr_bounds_seconds", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	want := []int64{2, 4, 6, 7} // le=1: {0.5,1}; le=2: +{1.5,2}; le=4: +{3,4}; +Inf: +{5}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 17 {
		t.Errorf("sum = %g, want 17", h.Sum())
	}
}

// TestWriteTextGolden pins the exposition format byte for byte.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdr_queries_total", "Queries served.", L("method", "FR")).Add(3)
	r.Counter("pdr_queries_total", "Queries served.", L("method", "PA")).Inc()
	r.Gauge("pdr_pool_pages", "Allocated pages.").Set(12)
	r.GaugeFunc("pdr_pool_hit_ratio", "Buffer hit ratio.", func() float64 { return 0.75 })
	r.CounterFunc("pdr_pool_reads_total", "Physical reads.", func() int64 { return 40 })
	h := r.Histogram("pdr_query_seconds", "Latency.", []float64{0.1, 1}, L("method", "FR"))
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pdr_pool_hit_ratio Buffer hit ratio.
# TYPE pdr_pool_hit_ratio gauge
pdr_pool_hit_ratio 0.75
# HELP pdr_pool_pages Allocated pages.
# TYPE pdr_pool_pages gauge
pdr_pool_pages 12
# HELP pdr_pool_reads_total Physical reads.
# TYPE pdr_pool_reads_total counter
pdr_pool_reads_total 40
# HELP pdr_queries_total Queries served.
# TYPE pdr_queries_total counter
pdr_queries_total{method="FR"} 3
pdr_queries_total{method="PA"} 1
# HELP pdr_query_seconds Latency.
# TYPE pdr_query_seconds histogram
pdr_query_seconds_bucket{method="FR",le="0.1"} 1
pdr_query_seconds_bucket{method="FR",le="1"} 2
pdr_query_seconds_bucket{method="FR",le="+Inf"} 2
pdr_query_seconds_sum{method="FR"} 0.55
pdr_query_seconds_count{method="FR"} 2
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdr_esc_total", "", L("route", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `route="a\"b\\c\n"`) {
		t.Errorf("label not escaped: %s", b.String())
	}
}

// TestRegistryConcurrency exercises every instrument from many goroutines
// while scraping; run under -race by scripts/check.sh.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pdr_conc_total", "h")
	g := r.Gauge("pdr_conc_gauge", "h")
	h := r.Histogram("pdr_conc_seconds", "h", nil)
	r.GaugeFunc("pdr_conc_ratio", "h", func() float64 { return float64(c.Value()) })

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%7) * 0.001)
				// Concurrent re-registration must dedupe, not race.
				r.Counter("pdr_conc_total", "h").Add(0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.WriteText(&strings.Builder{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != iters-1 {
		t.Errorf("gauge = %g, want %d (every worker's last Set)", g.Value(), iters-1)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

// TestScrapeDuringLazyRegistration races WriteText against registrations
// that add brand-new label signatures (the service middleware materializes
// status-code labels lazily, so first-seen statuses mutate a family's order
// slice and instruments map mid-flight). Run under -race by
// scripts/check.sh; before exposition snapshotted families under the
// registry mutex this was a concurrent map read/write panic.
func TestScrapeDuringLazyRegistration(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("pdr_lazy_total", "h",
					L("worker", strconv.Itoa(w)), L("status", strconv.Itoa(i))).Inc()
				r.Histogram("pdr_lazy_seconds", "h", nil, L("worker", strconv.Itoa(w)),
					L("status", strconv.Itoa(i))).Observe(0.001)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := r.WriteText(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "pdr_lazy_total{"); got != workers*iters {
		t.Errorf("exposed %d pdr_lazy_total samples, want %d", got, workers*iters)
	}
}
