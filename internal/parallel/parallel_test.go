package parallel

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdr/internal/telemetry"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 17} {
		for _, n := range []int{0, 1, 2, 5, 64} {
			p := New(workers)
			seen := make([]atomic.Int64, n)
			p.ForEach(n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestNewDefaultsToHardwareParallelism(t *testing.T) {
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d, want >= 1", got)
	}
	if got := New(-3).Workers(); got < 1 {
		t.Fatalf("New(-3).Workers() = %d, want >= 1", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d, want 5", got)
	}
}

// TestNestedForEach exercises the caller-runs guarantee: fan-outs inside
// fan-outs must complete even when every helper slot is taken.
func TestNestedForEach(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.ForEach(8, func(i int) {
		p.ForEach(8, func(j int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested ForEach ran %d inner items, want 64", got)
	}
}

// TestConcurrentForEach runs more simultaneous fan-outs than the pool has
// slots; all must finish (the extras degrade to sequential).
func TestConcurrentForEach(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForEach(100, func(i int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 800 {
		t.Fatalf("concurrent ForEach ran %d items, want 800", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	p := New(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p.ForEach(32, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned instead of panicking")
}

func TestBusyGaugeReturnsToZero(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(4)
	p.RegisterMetrics(reg)
	busy := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "pdr_parallel_workers_busy "); ok {
				return v
			}
		}
		t.Fatalf("no busy gauge in\n%s", b.String())
		return ""
	}
	// Every helper blocks until all four items run at once, so a scrape
	// taken then sees the three helpers.
	var started sync.WaitGroup
	started.Add(4)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ForEach(4, func(int) {
			started.Done()
			<-release
		})
	}()
	started.Wait()
	if v := busy(); v != "3" {
		t.Errorf("busy gauge = %s while every item runs, want 3", v)
	}
	close(release)
	<-done
	if v := busy(); v != "0" {
		t.Fatalf("busy gauge = %s after ForEach, want 0", v)
	}
}
