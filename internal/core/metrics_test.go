package core

import (
	"fmt"
	"testing"

	"pdr/internal/motion"
	"pdr/internal/telemetry"
)

// TestQueryErrorsCountCalls pins pdr_engine_query_errors_total to failed
// calls: every rejection of the three public query entry points moves it by
// exactly one — including an interval whose 30 snapshots each fail — and a
// successful call leaves it alone, with and without the result cache.
func TestQueryErrorsCountCalls(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cacheBytes=%d", cacheBytes), func(t *testing.T) {
			metered := func(keepHistory bool) (*Server, *Metrics) {
				cfg := streamConfig(1, 2)
				cfg.KeepHistory = keepHistory
				cfg.CacheBytes = cacheBytes
				s, err := NewServer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				met := NewMetrics(telemetry.NewRegistry())
				s.SetMetrics(met)
				makeStream().replay(t, s)
				return s, met
			}
			s, met := metered(true)
			noHist, noHistMet := metered(false)
			now := s.Now()
			ok := Query{Rho: 0.0001, L: 100, At: now}
			snapshot := func(q Query, m Method) func() error {
				return func() error { _, err := s.Snapshot(q, m); return err }
			}
			interval := func(q Query, ticks motion.Tick, m Method) func() error {
				return func() error { _, err := s.Interval(q, q.At+ticks, m); return err }
			}
			past := func(srv *Server, q Query) func() error {
				return func() error { _, err := srv.PastSnapshot(q); return err }
			}
			for _, c := range []struct {
				name string
				met  *Metrics
				call func() error
				want int64
			}{
				{"snapshot ok", met, snapshot(ok, FR), 0},
				{"snapshot ok again (a cache hit when caching)", met, snapshot(ok, FR), 0},
				{"snapshot negative rho", met, snapshot(Query{Rho: -1, L: 100, At: now}, FR), 1},
				{"snapshot zero l", met, snapshot(Query{Rho: 1, L: 0, At: now}, FR), 1},
				{"snapshot beyond the horizon", met, snapshot(Query{Rho: 1, L: 100, At: now + 1000}, FR), 1},
				{"snapshot unknown method", met, snapshot(ok, Method(99)), 1},
				{"snapshot PA at a foreign l", met, snapshot(Query{Rho: 0.0001, L: 120, At: now}, PA), 1},
				{"interval ok", met, interval(ok, 5, PA), 0},
				{"interval empty", met, interval(ok, -1, FR), 1},
				{"interval of 30 failing snapshots", met, interval(Query{Rho: 0.0001, L: 120, At: now}, 29, PA), 1},
				{"past ok", met, past(s, Query{Rho: 0.0001, L: 100, At: 4}), 0},
				{"past at now", met, past(s, ok), 1},
				{"past negative rho", met, past(s, Query{Rho: -1, L: 100, At: 4}), 1},
				{"past without history", noHistMet, past(noHist, Query{Rho: 0.0001, L: 100, At: 4}), 1},
			} {
				before := c.met.errors.Value()
				err := c.call()
				if failed := err != nil; failed != (c.want == 1) {
					t.Fatalf("%s: err = %v", c.name, err)
				}
				if got := c.met.errors.Value() - before; got != c.want {
					t.Errorf("%s: error counter moved by %d, want %d", c.name, got, c.want)
				}
			}
		})
	}
}
