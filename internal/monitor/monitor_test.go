package monitor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/telemetry"
)

func testServer(t *testing.T) *core.Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// block builds n states packed near (cx, cy), stationary, starting at ref.
func block(idBase, n int, cx, cy float64, ref motion.Tick) []motion.State {
	out := make([]motion.State, n)
	side := int(math.Sqrt(float64(n))) + 1
	for i := range out {
		out[i] = motion.State{
			ID:  motion.ObjectID(idBase + i),
			Pos: geom.Point{X: cx + float64(i%side), Y: cy + float64(i/side)},
			Ref: ref,
		}
	}
	return out
}

func TestRegisterValidation(t *testing.T) {
	m := New(testServer(t))
	if _, err := m.Register(ContinuousQuery{Rho: -1, L: 60}); err == nil {
		t.Error("negative rho must be rejected")
	}
	if _, err := m.Register(ContinuousQuery{Rho: 1, L: 0}); err == nil {
		t.Error("zero l must be rejected")
	}
	for _, q := range []ContinuousQuery{{Rho: math.NaN(), L: 60}, {Rho: math.Inf(1), L: 60}, {Rho: 1, L: math.Inf(1)}} {
		if _, err := m.Register(q); err == nil {
			t.Errorf("rho=%g l=%g must be rejected", q.Rho, q.L)
		}
	}
	if _, err := m.Register(ContinuousQuery{Rho: 1, L: 60, Ahead: 99}); err == nil {
		t.Error("forecast beyond W must be rejected")
	}
	id, err := m.Register(ContinuousQuery{Rho: 0.001, L: 60, Method: core.FR})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unregister(id) {
		t.Error("Unregister of live sub failed")
	}
	if m.Unregister(id) {
		t.Error("double Unregister succeeded")
	}
}

func TestFirstEventIsFullRegion(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 100, 500, 500, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	rho := 50.0 / (60 * 60)
	if _, err := m.Register(ContinuousQuery{Rho: rho, L: 60, Method: core.FR}); err != nil {
		t.Fatal(err)
	}
	events, err := m.Advance(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if !ev.First {
		t.Error("first evaluation must be marked First")
	}
	if len(ev.Region) == 0 {
		t.Fatal("expected a dense region around the block")
	}
	if math.Abs(ev.Added.Area()-ev.Region.Area()) > 1e-9 {
		t.Error("first event's Added must equal the full region")
	}
	if len(ev.Removed) != 0 {
		t.Error("first event must have no Removed region")
	}
}

func TestDeltaOnAppearAndDisappear(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 100, 200, 200, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	rho := 50.0 / (60 * 60)
	if _, err := m.Register(ContinuousQuery{Rho: rho, L: 60, Method: core.FR}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(1, nil); err != nil {
		t.Fatal(err)
	}

	// A second block appears: the delta must be localized there.
	var ins []motion.Update
	for _, st := range block(1000, 100, 800, 800, 2) {
		ins = append(ins, motion.NewInsert(st))
	}
	events, err := m.Advance(2, ins)
	if err != nil {
		t.Fatal(err)
	}
	ev := events[0]
	if ev.First || !ev.Changed() {
		t.Fatalf("expected a change event, got %+v", ev)
	}
	if !ev.Added.Contains(geom.Point{X: 805, Y: 805}) {
		t.Error("Added must cover the new block")
	}
	if ev.Added.Contains(geom.Point{X: 205, Y: 205}) {
		t.Error("Added must not cover the old block")
	}
	if len(ev.Removed) != 0 {
		t.Errorf("nothing disappeared, Removed = %v", ev.Removed)
	}

	// The first block leaves: Removed covers it.
	var dels []motion.Update
	for _, st := range block(0, 100, 200, 200, 0) {
		dels = append(dels, motion.NewDelete(st, 3))
	}
	events, err = m.Advance(3, dels)
	if err != nil {
		t.Fatal(err)
	}
	ev = events[0]
	if !ev.Removed.Contains(geom.Point{X: 205, Y: 205}) {
		t.Error("Removed must cover the departed block")
	}
	if ev.Added.Area() > 1e-9 {
		t.Errorf("nothing new appeared, Added area %g", ev.Added.Area())
	}
	// Invariant: prev + Added - Removed == Region (area check).
	_ = ev
}

func TestEveryThrottling(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 50, 500, 500, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	if _, err := m.Register(ContinuousQuery{Rho: 0.001, L: 60, Every: 3, Method: core.PA}); err != nil {
		t.Fatal(err)
	}
	evCount := 0
	for now := motion.Tick(1); now <= 9; now++ {
		events, err := m.Advance(now, nil)
		if err != nil {
			t.Fatal(err)
		}
		evCount += len(events)
	}
	// Evaluations at t=1 (first), 4, 7 -> 3 events.
	if evCount != 3 {
		t.Errorf("Every=3 over 9 ticks produced %d events, want 3", evCount)
	}
	if m.NumSubscriptions() != 1 {
		t.Errorf("NumSubscriptions = %d", m.NumSubscriptions())
	}
}

func TestMultipleSubscriptions(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 120, 400, 400, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	rho := 50.0 / (60 * 60)
	id1, err := m.Register(ContinuousQuery{Rho: rho, L: 60, Method: core.FR})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Register(ContinuousQuery{Rho: rho, L: 60, Ahead: 10, Method: core.PA})
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.Advance(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].SubID != id1 || events[1].SubID != id2 {
		t.Errorf("events out of subscription order: %d, %d", events[0].SubID, events[1].SubID)
	}
	if events[1].Target != events[1].At+10 {
		t.Errorf("forecast target %d, want %d", events[1].Target, events[1].At+10)
	}
}

// TestSubscriptionsRideResultCache: when the server has a result cache,
// identical standing queries share one evaluation per tick — the second
// subscription's re-evaluation is a cache hit, and the next tick's epoch
// bump forces exactly one fresh evaluation again.
func TestSubscriptionsRideResultCache(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	cfg.CacheBytes = 16 << 20
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(block(0, 100, 500, 500, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	rho := 50.0 / (60 * 60)
	cq := ContinuousQuery{Rho: rho, L: 60, Method: core.FR}
	if _, err := m.Register(cq); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(cq); err != nil {
		t.Fatal(err)
	}
	for tick := motion.Tick(1); tick <= 3; tick++ {
		events, err := m.Advance(tick, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 2 {
			t.Fatalf("tick %d: %d events, want 2", tick, len(events))
		}
		if !regionsSame(events[0].Region, events[1].Region) {
			t.Errorf("tick %d: identical subscriptions answered differently", tick)
		}
		st := s.CacheStats()
		// Advance ticks (epoch bump) then evaluates both subs: one miss,
		// one reuse, every tick.
		if st.Misses != int64(tick) {
			t.Errorf("tick %d: %d evaluations, want %d (one per tick)", tick, st.Misses, tick)
		}
		if reused := st.Hits + st.Shared; reused != int64(tick) {
			t.Errorf("tick %d: %d reuses, want %d", tick, reused, tick)
		}
	}
}

func regionsSame(a, b geom.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdvanceTracedTickSpanHasEnginePhases: the "tick" span of a traced
// /v1/updates request carries the engine's write-path phases as children, so
// a slow tick says whether routing or the apply fan-out was slow.
func TestAdvanceTracedTickSpanHasEnginePhases(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 50, 500, 500, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	tr := telemetry.NewTrace("updates")
	ups := []motion.Update{motion.NewInsert(block(1000, 1, 200, 200, 1)[0])}
	if _, err := m.AdvanceTraced(1, ups, tr.Root()); err != nil {
		t.Fatal(err)
	}
	tr.End()
	tick := tr.Root().Children[0]
	if tick.Name != "tick" {
		t.Fatalf("first span is %q, want tick", tick.Name)
	}
	var names []string
	for _, c := range tick.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "plan,apply" {
		t.Fatalf("tick span children = %q, want plan,apply", got)
	}
}

// TestConcurrentSubscriptionChangesAndTicks registers, removes and counts
// subscriptions on two goroutines while a third ticks the monitor, with
// metrics attached as the service attaches them. It exists for
// `go test -race`: the monitor's own lock is what orders a registration
// against the re-evaluation loop of a tick, and without it the detector
// reports the subscription map and the id counter. Every tick must succeed,
// and the count must settle at the subscriptions left registered.
func TestConcurrentSubscriptionChangesAndTicks(t *testing.T) {
	s := testServer(t)
	if err := s.Load(block(0, 120, 400, 400, 0)); err != nil {
		t.Fatal(err)
	}
	m := New(s)
	met := NewMetrics(telemetry.NewRegistry())
	m.SetMetrics(met)
	rho := 50.0 / (60 * 60)
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for tick := motion.Tick(1); tick <= rounds; tick++ {
			if _, err := m.AdvanceTraced(tick, nil, telemetry.NewTrace("updates").Root()); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Each subscriber keeps every other subscription it registers.
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id, err := m.Register(ContinuousQuery{Rho: rho, L: 60, Ahead: motion.Tick(w), Method: core.PA})
				if err != nil {
					errs <- err
					return
				}
				if i%2 == 1 && !m.Unregister(id) {
					errs <- fmt.Errorf("subscription %d vanished before its removal", id)
					return
				}
				if n := m.NumSubscriptions(); n < 1 {
					errs <- fmt.Errorf("%d subscriptions while one of ours is registered", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := m.NumSubscriptions(), rounds; got != want || met.Subscriptions() != want {
		t.Errorf("%d subscriptions (gauge %d), want %d", got, met.Subscriptions(), want)
	}
}
