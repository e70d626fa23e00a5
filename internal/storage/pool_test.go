package storage

import (
	"bytes"
	"math"
	"pdr/internal/telemetry"
	"strings"
	"testing"
	"time"
)

func TestAllocReadWrite(t *testing.T) {
	p := NewPool(0)
	id := p.Alloc()
	if id == 0 {
		t.Fatal("Alloc returned the null PageID")
	}
	if err := p.Write(id, "hello"); err != nil {
		t.Fatal(err)
	}
	v, err := p.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if v != "hello" {
		t.Fatalf("Read = %v, want hello", v)
	}
	if p.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", p.NumPages())
	}
}

func TestUnknownPageErrors(t *testing.T) {
	p := NewPool(0)
	if _, err := p.Read(99); err == nil {
		t.Error("Read of unknown page must fail")
	}
	if err := p.Write(99, 1); err == nil {
		t.Error("Write to unknown page must fail")
	}
}

func TestResidentReadIsHit(t *testing.T) {
	p := NewPool(4)
	id := p.Alloc()
	p.Write(id, 42)
	before := p.Stats()
	if _, err := p.Read(id); err != nil {
		t.Fatal(err)
	}
	d := p.Stats().Sub(before)
	if d.Hits != 1 || d.Reads != 0 {
		t.Errorf("resident read: delta = %+v, want 1 hit, 0 reads", d)
	}
}

func TestEvictionAndMiss(t *testing.T) {
	p := NewPool(2)
	a, b, c := p.Alloc(), p.Alloc(), p.Alloc() // capacity 2: a evicted (dirty -> write)
	if p.Resident() > 2 {
		t.Fatalf("Resident = %d, want <= 2", p.Resident())
	}
	st := p.Stats()
	if st.Writes == 0 {
		t.Error("evicting a dirty page must count a physical write")
	}
	before := p.Stats()
	if _, err := p.Read(a); err != nil { // must miss
		t.Fatal(err)
	}
	if d := p.Stats().Sub(before); d.Reads != 1 {
		t.Errorf("faulting an evicted page: delta = %+v, want 1 read", d)
	}
	_ = b
	_ = c
}

func TestLRUOrder(t *testing.T) {
	p := NewPool(2)
	a, b := p.Alloc(), p.Alloc()
	p.Read(a) // a is now MRU; b is LRU
	_ = p.Alloc()
	// b must be the evicted one: re-reading a hits, re-reading b misses.
	before := p.Stats()
	p.Read(a)
	if d := p.Stats().Sub(before); d.Hits != 1 {
		t.Errorf("a should still be resident: %+v", d)
	}
	before = p.Stats()
	p.Read(b)
	if d := p.Stats().Sub(before); d.Reads != 1 {
		t.Errorf("b should have been evicted: %+v", d)
	}
}

func TestDropForcesColdReads(t *testing.T) {
	p := NewPool(0)
	ids := []PageID{p.Alloc(), p.Alloc(), p.Alloc()}
	p.Drop()
	before := p.Stats()
	for _, id := range ids {
		p.Read(id)
	}
	if d := p.Stats().Sub(before); d.Reads != 3 {
		t.Errorf("after Drop, reads = %d, want 3", d.Reads)
	}
}

func TestFlushCountsDirtyPagesOnce(t *testing.T) {
	p := NewPool(0)
	a, b := p.Alloc(), p.Alloc()
	p.Write(a, 1)
	p.Write(b, 2)
	before := p.Stats()
	p.Flush()
	if d := p.Stats().Sub(before); d.Writes != 2 {
		t.Errorf("Flush wrote %d, want 2", d.Writes)
	}
	before = p.Stats()
	p.Flush() // nothing dirty now
	if d := p.Stats().Sub(before); d.Writes != 0 {
		t.Errorf("second Flush wrote %d, want 0", d.Writes)
	}
}

func TestFreeReleases(t *testing.T) {
	p := NewPool(0)
	id := p.Alloc()
	p.Free(id)
	if p.NumPages() != 0 {
		t.Fatalf("NumPages = %d after Free, want 0", p.NumPages())
	}
	if _, err := p.Read(id); err == nil {
		t.Error("Read after Free must fail")
	}
}

func TestStatsModel(t *testing.T) {
	s := Stats{Reads: 3, Writes: 2, Hits: 10}
	if s.RandomIOs() != 5 {
		t.Errorf("RandomIOs = %d, want 5", s.RandomIOs())
	}
	if got := s.IOTime(DefaultRandomIO); got != 50*time.Millisecond {
		t.Errorf("IOTime = %v, want 50ms", got)
	}
	d := s.Sub(Stats{Reads: 1, Writes: 1, Hits: 4})
	if d != (Stats{Reads: 2, Writes: 1, Hits: 6}) {
		t.Errorf("Sub = %+v", d)
	}
}

func TestUnlimitedPoolNeverEvicts(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 1000; i++ {
		p.Alloc()
	}
	if p.Resident() != 1000 {
		t.Fatalf("Resident = %d, want 1000", p.Resident())
	}
	if p.Stats().Writes != 0 {
		t.Fatalf("unlimited pool must not evict; writes = %d", p.Stats().Writes)
	}
}

// TestPoolHitRatioFreshProcess pins the zero-denominator guard: with no
// logical reads yet the ratio must be 0, not NaN — NaN in the
// pdr_pool_hit_ratio gauge (and /v1/stats poolHitRatio) breaks a Prometheus
// scrape of a fresh process.
func TestPoolHitRatioFreshProcess(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 || math.IsNaN(r) {
		t.Fatalf("fresh HitRatio = %v, want 0", r)
	}
	reg := telemetry.NewRegistry()
	NewPool(0).RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if strings.Contains(body, "NaN") {
		t.Fatalf("fresh exposition contains NaN:\n%s", body)
	}
	if !strings.Contains(body, "pdr_pool_hit_ratio 0") {
		t.Fatalf("fresh exposition missing zero hit ratio:\n%s", body)
	}
}
